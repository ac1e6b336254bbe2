"""The execution engine: coordinates host interpretation, task-graph
construction, and (when an offloader is installed) device offload.

The engine is where the paper's "the compiler and runtime system
coordinate to automatically orchestrate communication and computation"
happens:

- ``task`` expressions evaluated by the interpreter are materialized into
  :class:`repro.runtime.taskgraph.Task` objects here;
- for each *filter* (isolated task), the engine asks its offloader to
  compile a device version; when compilation succeeds, the task's worker
  becomes the generated glue (marshal → transfer → launch → transfer →
  unmarshal), otherwise the worker transparently falls back to the host
  interpreter;
- every run accumulates a :class:`repro.runtime.profiler.ExecutionProfile`
  with the stage breakdown and a host-compute figure derived from the
  interpreter's :class:`repro.runtime.cost.CostCounter`.
"""

from __future__ import annotations

from repro.errors import RuntimeFault
from repro.frontend.types import VOID
from repro.runtime.cost import CostCounter, JavaCostModel
from repro.runtime.interp import Interpreter
from repro.runtime.profiler import ExecutionProfile
from repro.runtime.taskgraph import Task


class Engine:
    """Runs checked Lime programs.

    Args:
        checked: a :class:`repro.frontend.typecheck.CheckedProgram`.
        offloader: optional object with
            ``compile_filter(checked, method, profile) -> worker | None``;
            when provided, every isolated task is offered for offload.
        java_cost_model: converts interpreter op counts into nanoseconds.
        printer: receives ``Lime.print`` output.
        resilience: optional
            :class:`repro.runtime.resilience.ResiliencePolicy`; when
            provided, every offloaded filter is wrapped with
            retry/backoff, a per-task circuit breaker, and transparent
            demotion to its host-interpreter worker. With a breaker
            ``cooloff`` the demotion is reversible (half-open probing),
            and ``validate_every`` samples differential validation of
            device results against the host interpreter. Guarded
            execution (``--sanitize``) composes with this: sanitizer
            trips raised by instrumented launches (see
            :mod:`repro.runtime.sanitizer`) flow through the same
            retry/breaker path. ``None`` (the default) leaves the
            offload path byte-for-byte as before.
        tracer: optional :class:`repro.runtime.tracing.Tracer`; when
            provided, every instrumented layer below (compile pipeline,
            glue, executor, resilience, kernel cache) emits spans on
            the run's simulated timeline through ``profile.tracer``.
            ``None`` installs the zero-overhead
            :data:`~repro.runtime.tracing.NULL_TRACER`.
        journal: optional :class:`repro.runtime.journal.RunJournal`;
            when provided, every offloaded task's worker is wrapped in
            a :class:`repro.runtime.journal.JournaledWorker` that
            write-ahead-logs each completed stream item and, on a
            resumed run, serves journaled items without re-executing
            them. Host tasks recompute deterministically either way.
        item_guard: optional callable ``guard(task_name)`` invoked
            before *every* task-worker item (offloaded and host alike),
            outside every other wrapper. This is the serving layer's
            propagation point: a session deadline, tenant sim-time
            budget, or daemon drain raises here, so a misbehaving
            session is stopped at a clean item boundary — after the
            in-flight item completed and was journaled — instead of
            mid-fsync or mid-launch. ``None`` (the default) adds no
            wrapper and leaves the worker chain byte-for-byte as
            before.
    """

    def __init__(
        self,
        checked,
        offloader=None,
        java_cost_model=None,
        printer=None,
        resilience=None,
        tracer=None,
        journal=None,
        item_guard=None,
        fuse=None,
        hedge_urgency=None,
    ):
        self.checked = checked
        self.offloader = offloader
        self.resilience = resilience
        self.journal = journal
        self.item_guard = item_guard
        # Deadline-aware hedging (serving): a zero-argument deadline-
        # fraction callable installed on every fleet device worker.
        self.hedge_urgency = hedge_urgency
        self._journal_instances = {}
        self.java_cost_model = java_cost_model or JavaCostModel()
        self.cost = CostCounter()
        self.profile = ExecutionProfile(tracer=tracer)
        if journal is not None:
            journal.bind(self.profile)
        # Graph-level buffer planning / cross-task fusion (--fuse,
        # docs/FUSION.md). "off" (or no offloader) builds no planner at
        # all, keeping the seed path byte-identical; otherwise every
        # offloaded task gets a FusionCtx and TaskGraph.finish() hands
        # each assembled pipeline to the planner.
        self.fusion = None
        if (fuse or "off") != "off" and offloader is not None:
            from repro.compiler.fusion import FusionPlanner

            self.fusion = FusionPlanner(
                fuse, checked, offloader, self.profile
            )
            self.fusion.on_fused = self._record_fused
        self.interp = Interpreter(
            checked,
            cost=self.cost,
            task_factory=self._make_task,
            printer=printer,
        )
        self.offloaded_tasks = []
        self.host_tasks = []

    # -- public API ------------------------------------------------------------

    def run_static(self, class_name, method_name, args=()):
        """Invoke a static method (typically the program's entry point)."""
        return self.interp.call_static(class_name, method_name, list(args))

    def construct(self, class_name, args=()):
        return self.interp.construct(class_name, args)

    def call_instance(self, obj, method_name, args=()):
        return self.interp.call_instance(obj, method_name, list(args))

    def host_compute_ns(self):
        """Simulated JVM time for everything the interpreter executed."""
        return self.java_cost_model.nanos(self.cost)

    def total_ns(self):
        """End-to-end simulated time: host compute plus offload stages.

        This is the *work* total (every stage summed), invariant across
        fleet dispatch schedules; see :meth:`makespan_ns` for the
        schedule-dependent elapsed time."""
        return self.host_compute_ns() + self.profile.stages.total()

    def makespan_ns(self):
        """Elapsed simulated time: host compute plus the offload
        makespan. With a device fleet the offload makespan is the
        furthest per-device command-queue cursor (queues drain in
        parallel under the concurrent schedule); without one it is the
        summed stage time, so this equals :meth:`total_ns`."""
        fleet = getattr(self.offloader, "fleet", None)
        if fleet is not None:
            return self.host_compute_ns() + fleet.makespan_ns()
        return self.total_ns()

    # -- task materialization ------------------------------------------------------

    def _make_task(self, interp, expr, env):
        method = expr.resolved
        task_type = expr.type
        is_source = task_type.input == VOID
        produces = task_type.output != VOID
        name = "{}.{}".format(expr.class_name, expr.method_name)

        bound_values = None
        if expr.is_static_worker and expr.worker_args:
            bound_values = {
                param.name: interp.eval(arg, env)
                for param, arg in zip(method.params, expr.worker_args)
            }

        if task_type.isolated and not is_source and self.offloader is not None:
            device_worker = self.offloader.compile_filter(
                self.checked, method, self.profile, bound_values=bound_values
            )
            if device_worker is not None:
                host_factory = None
                if self.resilience is not None or self.fusion is not None:
                    # The host interpreter computes the same results as
                    # the device, so the fallback is built lazily from
                    # the same expression and only on first fault.
                    def host_factory(
                        interp=interp,
                        expr=expr,
                        env=env,
                        method=method,
                        is_source=is_source,
                        bound_values=bound_values,
                    ):
                        return self._host_worker(
                            interp, expr, env, method, is_source, bound_values
                        )

                worker = self._wrap_offloaded(
                    name, device_worker, host_factory
                )
                self.offloaded_tasks.append(name)
                self.profile.tracer.instant(
                    "task_created",
                    cat="taskgraph",
                    task=name,
                    offloaded=True,
                    resilient=self.resilience is not None,
                )
                task = Task(
                    worker=worker,
                    name=name,
                    is_source=is_source,
                    produces=produces,
                    isolated=True,
                )
                if self.fusion is not None:
                    from repro.compiler.fusion import FusionCtx

                    task.fusion = FusionCtx(
                        planner=self.fusion,
                        name=name,
                        method=method,
                        bound_values=bound_values,
                        device_worker=device_worker,
                        host_factory=host_factory,
                        wrap=self._wrap_offloaded,
                    )
                return task

        self.host_tasks.append(name)
        self.profile.tracer.instant(
            "task_created", cat="taskgraph", task=name, offloaded=False
        )
        worker = self._host_worker(
            interp, expr, env, method, is_source, bound_values
        )
        if self.item_guard is not None:
            worker = _guarded(worker, name, self.item_guard)
        return Task(
            worker=worker,
            name=name,
            is_source=is_source,
            produces=produces,
            isolated=task_type.isolated,
        )

    def _wrap_offloaded(self, name, device_worker, host_factory):
        """The offloaded-worker wrapper chain (resilience → journal →
        item guard), shared by ordinary tasks and the fusion planner's
        composite chains so both get identical fault/recovery/serving
        semantics."""
        worker = device_worker
        if self.hedge_urgency is not None and hasattr(
            device_worker, "hedge_urgency"
        ):
            device_worker.hedge_urgency = self.hedge_urgency
        if self.resilience is not None:
            worker = self.resilience.wrap(
                name, device_worker, host_factory, self.profile
            )
        if self.journal is not None:
            from repro.runtime.journal import JournaledWorker

            idx = self._journal_instances.get(name, 0)
            self._journal_instances[name] = idx + 1
            worker = JournaledWorker(
                name=name,
                key="{}#{}".format(name, idx),
                worker=worker,
                device_worker=device_worker,
                journal=self.journal,
                profile=self.profile,
                cost=self.cost,
            )
        if self.item_guard is not None:
            worker = _guarded(worker, name, self.item_guard)
        return worker

    def _record_fused(self, chain_name, member_names):
        """Planner hook: a composite task replaced ``member_names`` in
        one graph; record it like any other offloaded task."""
        self.offloaded_tasks.append(chain_name)
        self.profile.tracer.instant(
            "task_created",
            cat="taskgraph",
            task=chain_name,
            offloaded=True,
            fused=True,
        )

    def fusion_summary(self):
        """The run's fusion report (empty dict when --fuse off)."""
        if self.fusion is None:
            return {}
        return self.fusion.summary()

    def _host_worker(self, interp, expr, env, method, is_source, bound_values):
        if expr.is_static_worker:
            bound = []
            if bound_values:
                bound = [bound_values[p.name] for p in method.params[: len(bound_values)]]
            if is_source:
                return lambda: interp.call_static(
                    expr.class_name, expr.method_name, list(bound)
                )
            return lambda value: interp.call_static(
                expr.class_name, expr.method_name, list(bound) + [value]
            )
        ctor_args = [interp.eval(arg, env) for arg in expr.ctor_args]
        instance = interp.construct(expr.class_name, ctor_args)
        if is_source:
            return lambda: interp.call_instance(instance, expr.method_name, [])
        return lambda value: interp.call_instance(
            instance, expr.method_name, [value]
        )


def _guarded(worker, name, guard):
    """Run ``guard(name)`` before each item of ``worker`` (source
    workers take no value, stream workers take one — ``*args`` covers
    both)."""

    def invoke(*args):
        guard(name)
        return worker(*args)

    return invoke


def run_baseline(checked, class_name, method_name, args=(), printer=None):
    """Run a program entirely on the host (the paper's bytecode baseline)
    and return ``(result, simulated_ns, engine)``."""
    engine = Engine(checked, offloader=None, printer=printer)
    result = engine.run_static(class_name, method_name, args)
    return result, engine.total_ns(), engine
