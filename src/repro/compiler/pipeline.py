"""The end-to-end GPU compilation pipeline (Figure 3 of the paper).

``compile_filter`` takes a filter worker and produces the offloaded
worker object: kernel identification (:mod:`repro.compiler.kernels`),
idiom analysis (:mod:`repro.ir.patterns`), memory planning
(:mod:`repro.compiler.memopt`), lowering to kernel IR
(:mod:`repro.compiler.lower_kernel`), compilation for the simulator
(:mod:`repro.opencl.executor`), and the generated host glue
(:mod:`repro.backend.glue`).

:class:`Offloader` packages the per-device/per-config state behind the
interface :class:`repro.runtime.engine.Engine` expects, so running a
Lime program on a given simulated GPU is::

    offloader = Offloader(device=get_device("gtx580"))
    engine = Engine(checked, offloader=offloader)
    engine.run_static("NBody", "main")

Every setting a compile and its launches use is one frozen
:class:`OffloadOptions`, built once per offloader.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional

from repro.backend.glue import CompiledFilter, resolve_max_sim_items
from repro.compiler import kernels as kernel_id
from repro.compiler.lower_kernel import (
    BoundSpec,
    build_map_kernel,
    build_reduce_kernel,
    ktype_of,
)
from repro.compiler.memopt import plan_memory
from repro.compiler.options import OptimizationConfig
from repro.errors import KernelRejected
from repro.ir.patterns import analyze_worker
from repro.opencl.executor import resolve_exec_tier
from repro.opencl.kernel_cache import cached_compile_kernel
from repro.runtime import marshal
from repro.runtime.profiler import CommCostModel, ExecutionProfile
from repro.runtime.sanitizer import SanitizerConfig
from repro.backend.kernel_ir import Space as _KSpace

_CONSTANT_SPACE = _KSpace.CONSTANT


@dataclass(frozen=True)
class OffloadOptions:
    """Everything an offloader compiles and launches with.

    ``direct_marshal`` and ``overlap`` enable the paper's Section 5.3
    future-work optimizations (direct-to-device serialization, and
    hiding communication behind the previous stream item's kernel).
    ``sanitizer``, when it instruments launches, runs every kernel
    under a :class:`repro.runtime.sanitizer.LaunchGuard`.

    Construction fills ``config`` and ``comm`` with their defaults and
    resolves the work-item cap and the execution tier from
    ``REPRO_MAX_SIM_ITEMS`` and ``REPRO_EXEC_TIER`` when they are None,
    so the environment is read once per offloader, never per launch.
    """

    config: Optional[OptimizationConfig] = None  # None: everything on
    comm: Optional[CommCostModel] = None
    marshaller: object = marshal.SPECIALIZED  # or marshal.GENERIC
    local_size: Optional[int] = None  # None: the device default
    direct_marshal: bool = False
    overlap: bool = False
    max_sim_items: Optional[int] = None
    sanitizer: Optional[SanitizerConfig] = None
    exec_tier: Optional[str] = None  # "auto" / "batch" / "per-item"

    def __post_init__(self):
        resolved = {
            "config": self.config or OptimizationConfig(),
            "comm": self.comm or CommCostModel(),
            "max_sim_items": resolve_max_sim_items(self.max_sim_items),
            "exec_tier": resolve_exec_tier(self.exec_tier),
        }
        for name, value in resolved.items():
            object.__setattr__(self, name, value)


def _options(options, fields):
    """``options`` (or the defaults) with keyword ``fields`` replaced —
    the keyword form of every compile entry point."""
    if options is None:
        return OffloadOptions(**fields)
    return replace(options, **fields) if fields else options


def _bound_specs(shape):
    specs = []
    mapped = shape.mapped_method
    for param, arg in zip(mapped.params[1:], shape.bound_args):
        from repro.frontend.types import ArrayType

        if arg.kind == "param":
            kind = "array" if isinstance(param.type, ArrayType) else "scalar"
            specs.append(
                BoundSpec(
                    kind=kind,
                    param_name=param.name,
                    lime_type=param.type,
                    worker_param=arg.param_name,
                )
            )
        else:
            specs.append(
                BoundSpec(
                    kind="literal",
                    param_name=param.name,
                    lime_type=param.type,
                    literal=arg.literal,
                )
            )
    return specs


def _lower_map(
    checked, mapped, source, source_type, bound_specs, fused_inner,
    kernel_name, config, device, tracer,
):
    """Analyze, memory-plan and lower one map kernel — a filter's own or
    a fused chain's — recording its fused inner maps and its ``source``
    (the true param/iota source) in the kernel's meta."""
    with tracer.span("analyze", cat="compile"):
        patterns = analyze_worker(mapped)
    with tracer.span("memplan", cat="compile"):
        memplan = plan_memory(patterns, config, device)
    with tracer.span("lower", cat="compile", kernel="map"):
        plan = build_map_kernel(
            checked=checked,
            mapped_method=mapped,
            source_type=source_type,
            source_is_iota=source.kind == "iota",
            bound_specs=bound_specs,
            config=config,
            device=device,
            kernel_name=kernel_name,
            patterns=patterns,
            memplan=memplan,
            fused_inner=fused_inner or None,
        )
    if fused_inner:
        plan.kernel.meta["fused"] = [f[0].qualified_name for f in fused_inner]
    if source.kind == "iota":
        plan.kernel.meta["iota_source"] = {
            "literal": source.literal,
            "param": source.param_name,
        }
    else:
        plan.kernel.meta["source_param"] = source.param_name
    return plan


def _lower_filter_map(checked, map_shape, name, config, device, tracer):
    """Lower a filter's map kernel. Fused nested maps unwind first: walk
    down to the true (param/iota) source, collecting the inner
    per-element functions innermost-first."""
    fused = []
    base_source = map_shape.source
    inner_shape = map_shape
    while base_source.kind == "fused":
        inner_shape = base_source.inner
        fused.append((inner_shape.mapped_method, _bound_specs(inner_shape)))
        base_source = inner_shape.source
    fused.reverse()
    return _lower_map(
        checked,
        map_shape.mapped_method,
        base_source,
        inner_shape.elem_type,
        _bound_specs(map_shape),
        fused,
        name.replace(".", "_") + "_kernel",
        config,
        device,
        tracer,
    )


def compile_filter(
    checked,
    worker,
    device,
    profile=None,
    bound_values=None,
    device_key=None,
    options=None,
    **fields,
):
    """Compile one filter worker for ``device`` under ``options`` (an
    :class:`OffloadOptions`; keyword ``fields`` replace its fields).

    ``bound_values`` supplies values for worker parameters bound at
    task-creation time (``task Cls.m(bound...)``).

    Returns a :class:`CompiledFilter`; raises
    :class:`repro.errors.KernelRejected` when the worker does not match
    an offloadable shape.
    """
    options = _options(options, fields)
    config = options.config
    profile = profile if profile is not None else ExecutionProfile()

    # Compile-stage spans carry no simulated time (the paper's timing
    # model starts at the glue); their wall_ns shows where the
    # compiler itself spends time. A rejection closes the "compile"
    # span with an error arg.
    tracer = profile.tracer
    # The ``device`` arg carries the fleet short key (it selects the
    # Perfetto device track); single-device compiles report the model
    # under ``target`` and stay on the main simulated-time track.
    span_args = {"worker": worker.qualified_name, "target": device.name}
    if device_key is not None:
        span_args["device"] = device_key
    with tracer.span("compile", cat="compile", **span_args):
        with tracer.span("recognize", cat="compile"):
            shape = kernel_id.recognize_filter(checked, worker)
        name = worker.qualified_name
        # Kernels compile through the content-addressed cache: an
        # identical IR (across stream tasks, engine runs, sweeps and
        # fleet devices) reuses the compiled artifact instead of
        # re-running codegen.
        reduce_kernel = None
        reduce_op = None
        if shape.reduce is not None:
            reduce_op = shape.reduce.op
            with tracer.span("lower", cat="compile", kernel="reduce"):
                reduce_ir = build_reduce_kernel(
                    ktype_of(shape.reduce.elem_type),
                    reduce_op,
                    name.replace(".", "_") + "_reduce",
                )
            reduce_kernel = cached_compile_kernel(reduce_ir, profile=profile)
        map_shape = shape.map or shape.reduce.inner_map
        # No map shape: a pure reduction over the worker's input array.
        plan = compiled = constant_fallback = None
        if map_shape is not None:
            plan = _lower_filter_map(
                checked, map_shape, name, config, device, tracer
            )
            compiled = cached_compile_kernel(plan.kernel, profile=profile)
            uses_constant = any(
                param.is_pointer and param.space is _CONSTANT_SPACE
                for param in plan.kernel.params
            )
            if uses_constant and config.use_constant:
                constant_fallback = functools.partial(
                    compile_filter,
                    checked,
                    worker,
                    device,
                    profile=profile,
                    bound_values=bound_values,
                    device_key=device_key,
                    options=options,
                    config=replace(config, use_constant=False),
                )
        return CompiledFilter(
            name=name,
            worker=worker,
            plan=plan,
            compiled_kernel=compiled,
            device=device,
            profile=profile,
            options=options,
            reduce_kernel=reduce_kernel,
            reduce_op=reduce_op,
            bound_values=bound_values,
            constant_fallback=constant_fallback,
            device_key=device_key,
        )


def compile_fused_filter(
    checked, members, device, profile=None, device_key=None, options=None,
    **fields,
):
    """Compile a legal chain of map filters into one composite
    :class:`CompiledFilter` (cross-task kernel fusion, --fuse kernel),
    under ``options`` as :func:`compile_filter` takes them.

    ``members`` is a list of ``(worker MethodDecl, bound_values)``
    pairs in pipeline order; legality is checked by
    :func:`repro.compiler.fusion.build_fused_spec`, which raises
    :class:`repro.errors.KernelRejected` with a typed reason. The
    composite's per-element functions chain through
    ``build_map_kernel``'s ``fused_inner`` machinery — exactly the
    within-filter nested-map path, just fed across task boundaries —
    and the result is cached content-addressed like any other kernel.
    """
    from repro.compiler.fusion import build_fused_spec

    options = _options(options, fields)
    profile = profile if profile is not None else ExecutionProfile()

    spec = build_fused_spec(checked, members)
    name = spec.worker.qualified_name
    tracer = profile.tracer
    span_args = {"worker": name, "target": device.name, "fused": True}
    if device_key is not None:
        span_args["device"] = device_key
    with tracer.span("compile", cat="compile", **span_args):
        plan = _lower_map(
            checked,
            spec.mapped_method,
            spec.base_source,
            spec.source_type,
            spec.bound_specs,
            spec.fused_inner,
            name.replace(".", "_").replace("+", "__") + "_kernel",
            options.config,
            device,
            tracer,
        )
        plan.kernel.meta["fused_tasks"] = list(spec.fused_names)
        compiled = cached_compile_kernel(plan.kernel, profile=profile)
        return CompiledFilter(
            name=name,
            worker=spec.worker,
            plan=plan,
            compiled_kernel=compiled,
            device=device,
            profile=profile,
            options=options,
            bound_values=spec.bound_values,
            device_key=device_key,
        )


class Offloader:
    """The engine-facing compilation service.

    Args:
        device: the target :class:`DeviceModel`.
        options: the :class:`OffloadOptions` every compile of this
            service uses (default: all defaults); keyword ``fields``
            (``config=...``, ``local_size=...``) replace its fields.

    ``rejections`` records (worker, reason) pairs for tasks that fell
    back to the host — useful for diagnosing why something did not
    offload.
    """

    def __init__(self, device, options=None, **fields):
        self.device = device
        self.options = _options(options, fields)
        self.rejections = []
        self.compiled = {}

    def compile_filter(self, checked, worker, profile, bound_values=None):
        key = worker.qualified_name
        if key in self.compiled and self.compiled[key] is None:
            return None  # previously rejected
        try:
            filter_worker = compile_filter(
                checked,
                worker,
                device=self.device,
                profile=profile,
                bound_values=bound_values,
                options=self.options,
            )
        except KernelRejected as reason:
            self.rejections.append((key, str(reason)))
            filter_worker = None
        self.compiled[key] = filter_worker
        return filter_worker

    def compile_fused(self, checked, members, profile):
        """Compile a composite filter for a fused task chain (--fuse
        kernel). Raises :class:`KernelRejected` with a typed reason
        when the chain is not kernel-fusable — the planner declines
        the seam and falls back to buffer residency."""
        return compile_fused_filter(
            checked, members, device=self.device, profile=profile,
            options=self.options,
        )


class FleetOffloader(Offloader):
    """The engine-facing compilation service for a device *fleet*.

    Same interface as :class:`Offloader`, but ``compile_filter``
    lowers the worker once per fleet device (per-device timing models
    and ``device_key`` tagging; the kernel cache keys on the IR alone,
    so devices whose memory plans agree share one compiled kernel) and
    returns a :class:`repro.runtime.fleet.FleetWorker` that
    health-routes every stream item across the devices with
    transparent failover.

    Args:
        devices: device short keys in registration order, e.g.
            ``["gtx580", "hd5970"]``.
        policy: a :class:`repro.runtime.resilience.FleetPolicy` (or
            None for the defaults: health-ranked placement).
        fleet: an existing :class:`repro.runtime.fleet.DeviceFleet` to
            *share* instead of building one from ``devices`` — the
            serving daemon passes its fleet here so every concurrent
            session contends for the same devices and the same health
            state. A shared fleet's monitor keeps whatever profile the
            owner bound (fleet metrics are daemon-level, not
            per-session), so ``compile_filter`` does not rebind it.

    ``options`` and keyword ``fields`` are :class:`Offloader`'s. Its
    ``device`` is the first fleet device, for callers that report a
    primary target (the harness result header).
    """

    def __init__(
        self, devices=None, policy=None, fleet=None, options=None, **fields
    ):
        from repro.runtime.fleet import DeviceFleet

        self._owns_fleet = fleet is None
        if fleet is None:
            fleet = DeviceFleet(devices, policy=policy)
        self.fleet = fleet
        super().__init__(fleet.devices[fleet.keys[0]], options, **fields)

    def compile_filter(self, checked, worker, profile, bound_values=None):
        key = worker.qualified_name
        if key in self.compiled and self.compiled[key] is None:
            return None  # previously rejected
        if self._owns_fleet:
            self.fleet.monitor.bind(profile)
        try:
            fleet_worker = self._fleet_worker(
                compile_filter,
                checked,
                worker,
                profile=profile,
                bound_values=bound_values,
            )
        except KernelRejected as reason:
            # Offloadability is shape-based, so a rejection on one
            # device is a rejection for the whole fleet.
            self.rejections.append((key, str(reason)))
            fleet_worker = None
        self.compiled[key] = fleet_worker
        return fleet_worker

    def compile_fused(self, checked, members, profile):
        """Compile a composite filter chain once per fleet device and
        return a :class:`repro.runtime.fleet.FleetWorker` over them —
        a fused chain is dispatched like any other filter, but its
        intermediates live inside one kernel, so there is nothing to
        pin. Raises :class:`KernelRejected` on the first device that
        refuses the chain (shape-based, so all devices agree)."""
        return self._fleet_worker(
            compile_fused_filter, checked, members, profile=profile
        )

    def _fleet_worker(self, compile_one, *args, profile, **kwargs):
        """``compile_one`` once per fleet device, as one
        :class:`repro.runtime.fleet.FleetWorker`."""
        from repro.runtime.fleet import FleetWorker

        filters = {
            key: compile_one(
                *args,
                device=self.fleet.devices[key],
                profile=profile,
                device_key=key,
                options=self.options,
                **kwargs,
            )
            for key in self.fleet.keys
        }
        for filt in filters.values():
            filt.partition_depth = self.fleet.policy.partition_depth
        return FleetWorker(
            name=filters[self.fleet.keys[0]].name,
            filters=filters,
            fleet=self.fleet,
            profile=profile,
        )
