"""Graph-level buffer planning and cross-task kernel fusion (``--fuse``).

The paper's Figure 9 shows communication — marshalling plus bus
transfer — dominating several connected-filter pipelines, and its §5.3
speculates that most of that traffic is avoidable. This pass implements
the fix at the task-graph level: when :meth:`TaskGraph.finish` assembles
a pipeline, the planner walks the ``=>`` seams between *offloaded*
filters and, where legality allows, either

- **resident** mode: keeps the intermediate buffer on the producing
  device — the producer defers its device-to-host bill into a
  :class:`repro.runtime.marshal.ResidentMeta`, and the consumer elides
  the entire inbound marshal + transfer (``transfer.bytes_saved``); or
- **kernel** mode: additionally fuses maximal legal chains into one
  composite kernel through the existing content-addressed kernel cache,
  eliminating the intermediate buffer *and* a kernel launch per seam.

Legality is decided by explicit typed predicates; every declined seam
is recorded as ``fusion.declined.<reason>`` (see docs/FUSION.md for the
full rules table):

==================  =========================================================
reason              the seam is declined because…
==================  =========================================================
scalar_boundary     the producer returns a scalar (e.g. a reduction) — there
                    is no intermediate buffer to keep resident
type_mismatch       the produced array type differs from the consumer's
                    stream-port type
multi_consumer      the producer task is shared with another finished graph,
                    so its output cannot be pinned to one consumer's device
no_stream_param     the consumer has no unbound stream port
consumer_reduce     (kernel) the consumer is a device reduction — NDRanges
                    are not rate-matched across the seam
rate_mismatch       (kernel) the consumer's index space is not its stream
                    input (iota-, or bound-array-driven), so work-items do
                    not line up 1:1 across the seam
array_intermediate  (kernel) a row-valued element crosses the seam; fused
                    chaining is scalar-only (same restriction as the
                    within-filter nested-map fusion)
gather              (kernel) the consumer re-reads its whole stream input as
                    a bound array, which is no longer materialized once fused
param_collision     (kernel) two chained workers bind a parameter of the
                    same name — the merged worker cannot hold both
barrier             (kernel) a member kernel needs barrier synchronization
                    or local-memory tiling (work-group shape must not change)
divergence          (kernel) a member kernel is ineligible for re-shaping
                    for another structural reason (divergent branch, …)
rejected            (kernel) composite lowering itself refused the chain
==================  =========================================================

``--fuse off`` never constructs a planner, so the seed path stays
byte-identical.
"""

from __future__ import annotations

import os

from repro.errors import KernelRejected, RuntimeFault
from repro.frontend.types import ArrayType
from repro.opencl.executor import GROUP_REASONS

FUSE_ENV = "REPRO_FUSE"
FUSE_MODES = ("off", "resident", "kernel")


def resolve_fuse_mode(explicit=None):
    """The effective fusion mode: an explicit value wins, then the
    ``REPRO_FUSE`` environment variable, then ``off``."""
    mode = explicit if explicit is not None else os.environ.get(FUSE_ENV)
    if mode is None or mode == "":
        return "off"
    if mode not in FUSE_MODES:
        raise RuntimeFault(
            "fuse mode must be one of {} (got {!r})".format(
                "/".join(FUSE_MODES), mode
            )
        )
    return mode


class FusionCtx:
    """Per-task planning handle, attached to every offloaded
    :class:`~repro.runtime.taskgraph.Task` by the engine when ``--fuse``
    is active. Carries everything the planner needs to (re)compile and
    (re)wrap the task: the worker method, its bound values, the
    already-compiled device worker, the host-fallback factory, and the
    engine's wrapper chain."""

    __slots__ = (
        "planner", "name", "method", "bound_values", "device_worker",
        "host_factory", "wrap",
    )

    def __init__(
        self, planner, name, method, bound_values, device_worker,
        host_factory, wrap,
    ):
        self.planner = planner
        self.name = name
        self.method = method
        self.bound_values = bound_values
        self.device_worker = device_worker
        self.host_factory = host_factory
        self.wrap = wrap


class FusedWorker:
    """The synthetic worker declaration for a composite filter: the
    first member's stream port, every member's bound parameters, and
    the last member's return type. Quacks like a
    :class:`~repro.frontend.ast.MethodDecl` as far as the glue and the
    journal wire format are concerned."""

    def __init__(self, qualified_name, params, return_type):
        self.qualified_name = qualified_name
        self.params = params
        self.return_type = return_type
        self.is_static = True
        self.is_local = True

    def __repr__(self):
        return "<fused worker {}>".format(self.qualified_name)


class FusedSpec:
    """The lowering-ready description of a legal kernel chain."""

    def __init__(
        self, worker, mapped_method, bound_specs, fused_inner,
        source_type, source_is_iota, base_source, bound_values,
        fused_names,
    ):
        self.worker = worker
        self.mapped_method = mapped_method
        self.bound_specs = bound_specs
        self.fused_inner = fused_inner
        self.source_type = source_type
        self.source_is_iota = source_is_iota
        self.base_source = base_source
        self.bound_values = bound_values
        self.fused_names = fused_names


def build_fused_spec(checked, members):
    """Merge a chain of recognized map filters into one
    :class:`FusedSpec`, or raise :class:`KernelRejected` whose message
    starts with the typed decline reason.

    ``members`` is a list of ``(method, bound_values)`` pairs in
    pipeline order. The per-element functions chain innermost-first
    exactly like the existing within-filter nested-map fusion — member
    k's scalar result becomes member k+1's element — so the composite
    reuses :func:`repro.compiler.lower_kernel.build_map_kernel`'s
    ``fused_inner`` machinery unchanged.
    """
    from repro.compiler import kernels as kernel_id
    from repro.compiler.pipeline import _bound_specs

    chain = []  # (method, bound_specs) innermost-first
    merged_bound = {}
    params = []
    seen_params = set()
    base_source = None
    source_type = None
    outer_shape = None
    fused_names = [m.qualified_name for m, _ in members]
    last = len(members) - 1

    for i, (method, bound_values) in enumerate(members):
        shape = kernel_id.recognize_filter(checked, method)
        if shape.map is None:
            raise KernelRejected(
                "consumer_reduce: '{}' is a device reduction; its NDRange "
                "is not rate-matched with the producer's".format(
                    method.qualified_name
                )
            )
        ms = shape.map
        # Unwind the member's own nested-map fusion, innermost first.
        inner = []
        src = ms.source
        ishape = ms
        while src.kind == "fused":
            ishape = src.inner
            inner.append((ishape.mapped_method, _bound_specs(ishape)))
            src = ishape.source
        inner.reverse()

        bound_values = dict(bound_values or {})
        free = [p for p in method.params if p.name not in bound_values]
        if len(free) != 1:
            raise KernelRejected(
                "no_stream_param: '{}' has {} unbound parameters".format(
                    method.qualified_name, len(free)
                )
            )
        stream = free[0]

        if i == 0:
            base_source = src
            source_type = ishape.elem_type
        else:
            if src.kind != "param" or src.param_name != stream.name:
                raise KernelRejected(
                    "rate_mismatch: '{}' does not map 1:1 over its stream "
                    "input (source is {})".format(
                        method.qualified_name, src.kind
                    )
                )
            if isinstance(ishape.elem_type, ArrayType):
                raise KernelRejected(
                    "array_intermediate: '{}' consumes row-valued elements "
                    "across the fused seam".format(method.qualified_name)
                )
            # Once fused, the member's stream input is never
            # materialized — a bound argument re-reading the whole
            # array (a gather) cannot be satisfied.
            all_specs = [s for _, specs in inner for s in specs]
            all_specs += _bound_specs(ms)
            for spec in all_specs:
                if spec.worker_param == stream.name:
                    raise KernelRejected(
                        "gather: '{}' re-reads its whole stream input, "
                        "which is not materialized inside a fused "
                        "chain".format(method.qualified_name)
                    )
        if i < last and isinstance(ms.mapped_method.return_type, ArrayType):
            raise KernelRejected(
                "array_intermediate: '{}' produces row-valued elements "
                "across the fused seam".format(method.qualified_name)
            )

        for p in method.params:
            if i > 0 and p.name == stream.name:
                continue  # the interior stream port disappears
            if p.name in seen_params:
                raise KernelRejected(
                    "param_collision: worker parameter '{}' appears in "
                    "more than one fused chain member".format(p.name)
                )
            seen_params.add(p.name)
            params.append(p)
        merged_bound.update(bound_values)

        if i < last:
            chain.extend(inner)
            # The third element marks a cross-task seam: the chained
            # scalar is rounded to its declared type, reproducing the
            # intermediate buffer's store+load bit-exactly (the
            # simulator computes in-register math at host precision and
            # rounds only at stores — exactly like real GPUs contracting
            # through fused multiply-adds, the rounding points are what
            # the staged execution pins down).
            chain.append((ms.mapped_method, _bound_specs(ms), True))
        else:
            chain.extend(inner)
            outer_shape = ms

    worker = FusedWorker(
        qualified_name="+".join(fused_names),
        params=params,
        return_type=members[-1][0].return_type,
    )
    return FusedSpec(
        worker=worker,
        mapped_method=outer_shape.mapped_method,
        bound_specs=_bound_specs(outer_shape),
        fused_inner=chain or None,
        source_type=source_type,
        source_is_iota=base_source.kind == "iota",
        base_source=base_source,
        bound_values=merged_bound,
        fused_names=fused_names,
    )


def _filters_of(device_worker):
    """The :class:`CompiledFilter` objects behind a device worker —
    one for a plain offload, one per device for a fleet worker."""
    filters = getattr(device_worker, "filters", None)
    if filters is not None:
        return list(filters.values())
    return [device_worker]


class FusionPlanner:
    """The graph-level pass. One planner per engine run; applied once
    per finished :class:`~repro.runtime.taskgraph.TaskGraph` (the seams
    only exist once the graph is assembled).

    The plan/acquire/release lifecycle (docs/FUSION.md):

    - **plan** — here: walk the seams, decide residency and chains;
    - **acquire** — at item time, the consumer's
      :meth:`CompiledFilter._elide_inbound` adopts the resident buffer;
    - **release** — whoever forces the value back to the host settles
      the producer's deferred d2h bill exactly once
      (:func:`repro.runtime.marshal.settle_resident`).
    """

    def __init__(self, mode, checked, offloader, profile):
        self.mode = mode
        self.checked = checked
        self.offloader = offloader
        self.profile = profile
        self.on_fused = None  # engine hook: records the composite task
        self.chains = []  # {"chain", "tasks", "kind"}
        self.declines = []  # (seam-name, reason)
        self._planned = []  # graphs already planned (identity)
        self._claims = {}  # id(task) -> owning graph
        self._marks = []  # {"tasks": (prod, cons), "undo": [callables]}

    # -- entry point -------------------------------------------------------

    def apply(self, graph):
        if self.mode == "off":
            return
        if any(g is graph for g in self._planned):
            return
        self._planned.append(graph)
        tasks = graph.tasks
        # Multi-consumer check: a task shared with another finished
        # graph cannot keep its output pinned to one device — revoke
        # any resident marks the earlier graph placed on its seams.
        for t in tasks:
            if t.fusion is None:
                continue
            prev = self._claims.get(id(t))
            if prev is not None and prev is not graph:
                self._decline(t.name, "multi_consumer")
                self._revoke(t)
            self._claims[id(t)] = graph
        new_tasks = []
        i, n = 0, len(tasks)
        while i < n:
            if tasks[i].fusion is None:
                new_tasks.append(tasks[i])
                i += 1
                continue
            j = i
            while j < n and tasks[j].fusion is not None:
                j += 1
            new_tasks.extend(self._plan_run(tasks[i:j]))
            i = j
        tasks[:] = new_tasks

    # -- run / segment planning -------------------------------------------

    def _plan_run(self, run):
        """Split a maximal run of adjacent offloaded tasks into
        resident-legal segments and plan each."""
        if len(run) == 1:
            return list(run)
        segments = [[run[0]]]
        for prod, cons in zip(run, run[1:]):
            reason = self._resident_reason(prod.fusion, cons.fusion)
            if reason is None:
                segments[-1].append(cons)
            else:
                self._decline(
                    "{}=>{}".format(prod.name, cons.name), reason
                )
                segments.append([cons])
        out = []
        for seg in segments:
            if len(seg) < 2:
                out.extend(seg)
            else:
                out.extend(self._plan_segment(seg))
        return out

    def _plan_segment(self, seg):
        """Plan one resident-legal chain: record it, optionally fuse
        kernel-legal sub-chains into composite tasks, then mark every
        remaining seam for device residency."""
        chain_name = "+".join(t.name for t in seg)
        kind = "resident"
        units = list(seg)
        if self.mode == "kernel":
            units, fused_any = self._compose_units(seg)
            if fused_any:
                kind = "kernel"
        self.chains.append(
            {
                "chain": chain_name,
                "tasks": [t.name for t in seg],
                "kind": kind,
            }
        )
        self.profile.metrics.inc("fusion.chains")
        self.profile.tracer.instant(
            "fusion_chain",
            cat="fusion",
            chain=chain_name,
            length=len(seg),
            mode=kind,
        )
        # Residency across the seams that remain after composition.
        for prod, cons in zip(units, units[1:]):
            self._mark_resident(prod, cons)
        return units

    def _compose_units(self, seg):
        """Fuse maximal kernel-legal sub-chains of ``seg`` into
        composite tasks. Returns ``(units, fused_any)`` where units are
        the surviving tasks in order (members replaced by their
        composite)."""
        groups = [[seg[0]]]
        for prod, cons in zip(seg, seg[1:]):
            reason = self._kernel_reason(prod.fusion, cons.fusion)
            if reason is None:
                groups[-1].append(cons)
            else:
                self._decline(
                    "{}=>{}".format(prod.name, cons.name), reason
                )
                groups.append([cons])
        units = []
        fused_any = False
        for group in groups:
            if len(group) < 2:
                units.extend(group)
                continue
            composite = self._fuse_group(group)
            if composite is None:
                units.extend(group)
            else:
                units.append(composite)
                fused_any = True
        return units, fused_any

    def _fuse_group(self, group):
        """Compile one kernel-legal chain into a composite task, or
        decline (returning None) if lowering refuses it."""
        chain_name = "+".join(t.name for t in group)
        members = [
            (t.fusion.method, t.fusion.bound_values) for t in group
        ]
        try:
            device_worker = self.offloader.compile_fused(
                self.checked, members, self.profile
            )
        except KernelRejected as err:
            reason = str(err).split(":", 1)[0].strip()
            if reason not in (
                "consumer_reduce", "rate_mismatch", "array_intermediate",
                "gather", "param_collision", "no_stream_param",
            ):
                reason = "rejected"
            self._decline(chain_name, reason)
            return None
        for filt in _filters_of(device_worker):
            filt.chain = chain_name
        factories = [t.fusion.host_factory for t in group]

        def host_factory(factories=factories):
            workers = [f() for f in factories]

            def run(value):
                for w in workers:
                    value = w(value)
                return value

            return run

        head = group[0].fusion
        worker = head.wrap(chain_name, device_worker, host_factory)
        from repro.runtime.taskgraph import Task

        composite = Task(
            worker=worker,
            name=chain_name,
            is_source=False,
            produces=group[-1].produces,
            isolated=True,
        )
        composite.fusion = FusionCtx(
            planner=self,
            name=chain_name,
            method=None,
            bound_values=None,
            device_worker=device_worker,
            host_factory=host_factory,
            wrap=head.wrap,
        )
        self.profile.metrics.inc("fusion.fused_kernels")
        self.profile.tracer.instant(
            "fusion_fused",
            cat="fusion",
            chain=chain_name,
            members=len(group),
        )
        if self.on_fused is not None:
            self.on_fused(chain_name, [t.name for t in group])
        return composite

    # -- residency marks ---------------------------------------------------

    def _mark_resident(self, prod, cons):
        """Flip the producer's emit and the consumer's accept bits on a
        legal seam, remembering how to undo both (multi-consumer
        revocation)."""
        undo = []
        for filt in _filters_of(prod.fusion.device_worker):
            filt.emit_resident = True
            undo.append(lambda f=filt: setattr(f, "emit_resident", False))
        for filt in _filters_of(cons.fusion.device_worker):
            filt.accept_resident = True
            undo.append(lambda f=filt: setattr(f, "accept_resident", False))
        cons_worker = cons.fusion.device_worker
        if hasattr(cons_worker, "filters"):  # FleetWorker
            cons_worker.pin_resident = True
            undo.append(
                lambda w=cons_worker: setattr(w, "pin_resident", False)
            )
        self._marks.append({"tasks": (prod, cons), "undo": undo})

    def _revoke(self, task):
        """Undo every resident mark on a seam involving ``task`` —
        values then flow through the host boundary again, and any
        still-unsettled resident output settles on first use."""
        kept = []
        for mark in self._marks:
            if task in mark["tasks"]:
                for undo in mark["undo"]:
                    undo()
            else:
                kept.append(mark)
        self._marks[:] = kept

    # -- legality predicates ----------------------------------------------

    def _stream_param(self, ctx):
        filt = _filters_of(ctx.device_worker)[0]
        return filt.stream_param

    def _resident_reason(self, prod, cons):
        """Resident-level legality for one seam; None when legal."""
        if prod.method is None or cons.method is None:
            return "rejected"  # composites never re-chain
        if not isinstance(prod.method.return_type, ArrayType):
            return "scalar_boundary"
        stream = self._stream_param(cons)
        if stream is None:
            return "no_stream_param"
        if str(stream.type) != str(prod.method.return_type):
            return "type_mismatch"
        return None

    def _kernel_reason(self, prod, cons):
        """Kernel-level legality for one seam (assumes the resident
        check already passed); None when a composite may be attempted."""
        for ctx in (prod, cons):
            filt = _filters_of(ctx.device_worker)[0]
            if filt.plan is None or filt.reduce_kernel is not None:
                return "consumer_reduce"
            compiled = filt.compiled_kernel
            if not compiled.batch_supported:
                if compiled.batch_reason in GROUP_REASONS:
                    return "barrier"
                return "divergence"
        # Structural checks — rate match, scalar seam, gathers, merged
        # parameter collisions — are re-derived from the worker shapes
        # in build_fused_spec, which raises with the typed reason.
        return None

    # -- bookkeeping -------------------------------------------------------

    def _decline(self, seam, reason):
        self.declines.append((seam, reason))
        self.profile.metrics.inc("fusion.declined.{}".format(reason))
        self.profile.tracer.instant(
            "fusion_declined", cat="fusion", seam=seam, reason=reason
        )

    def summary(self):
        """The run's fusion report (RunResult.fusion)."""
        declined = {}
        for _, reason in self.declines:
            declined[reason] = declined.get(reason, 0) + 1
        metrics = self.profile.metrics
        return {
            "mode": self.mode,
            "chains": [dict(c) for c in self.chains],
            "fused_kernels": int(metrics.get("fusion.fused_kernels", 0)),
            "elisions": int(metrics.get("fusion.elisions", 0)),
            "bytes_saved": int(metrics.get("transfer.bytes_saved", 0)),
            "rematerialized": int(
                metrics.get("fusion.rematerialized", 0)
            ),
            "declined": declined,
        }
