"""Generated host-side coordination ("glue") code.

The paper's compiler emits C code that "handles data exchange and the
calls to the OpenCL API". :class:`CompiledFilter` is that generated glue,
as an executable object: invoked by the task-graph runtime as the
worker of an offloaded filter, it walks the full Figure 6 path on every
invocation —

1. **Java marshal**: serialize the input Lime value(s) — the stream
   input plus any worker parameters bound at task creation — to the byte
   wire format (:mod:`repro.runtime.marshal`);
2. **JNI crossing + C marshal**: decode the byte stream into C-layout
   (flattened, densely packed) device arrays;
3. **OpenCL setup**: create buffers, bind arguments, choose the NDRange;
4. **transfer**: host-to-device copies (PCIe);
5. **kernel**: execute on the simulated device
   (:mod:`repro.opencl.executor` + :mod:`repro.opencl.timing`);
6. the mirror path back: device-to-host transfer, C serialize, Java
   deserialize into a frozen Lime value array.

Every stage's simulated cost is recorded into a
:class:`repro.runtime.profiler.ExecutionProfile` under the Figure 9
stage names.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

from repro.backend.kernel_ir import Space
from repro.errors import DeviceOOM, LaunchFault, RuntimeFault, TransferFault


class _ConstantOverflow(Exception):
    """Internal: a constant-space buffer exceeded the device capacity;
    the caller falls back to the global-memory compilation."""
from repro.frontend.types import ArrayType
from repro.opencl.timing import time_launch
from repro.runtime import marshal
from repro.runtime.cost import StageTimes
from repro.runtime.sanitizer import LaunchGuard

_NP_DTYPES = {
    "bool": np.bool_,
    "char": np.int8,
    "int": np.int32,
    "long": np.int64,
    "float": np.float32,
    "double": np.float64,
}


def np_dtype(kscalar):
    return _NP_DTYPES[kscalar.kind]


# Simulation knob: cap on simulated work-items per launch. The generated
# kernels stride over the index space (Figure 4), so capping the NDRange
# changes only simulation effort, never results. Configurable per filter
# (Offloader(max_sim_items=...)), per process (REPRO_MAX_SIM_ITEMS), or
# per CLI invocation (--max-sim-items).
MAX_SIMULATED_ITEMS = 2048

MAX_SIM_ITEMS_ENV = "REPRO_MAX_SIM_ITEMS"


def resolve_max_sim_items(explicit=None):
    """The effective work-item cap: an explicit value wins, then the
    ``REPRO_MAX_SIM_ITEMS`` environment variable, then the default.
    Resolved lazily (per launch) so runtime changes to the environment
    or the module default take effect immediately."""
    if explicit is not None:
        value = int(explicit)
    else:
        env = os.environ.get(MAX_SIM_ITEMS_ENV)
        if env is None:
            return MAX_SIMULATED_ITEMS
        try:
            value = int(env)
        except ValueError:
            raise RuntimeFault(
                "{} must be an integer, got {!r}".format(MAX_SIM_ITEMS_ENV, env)
            )
    if value < 1:
        raise RuntimeFault(
            "the simulated work-item cap must be >= 1, got {}".format(value)
        )
    return value


# Stage names whose charges the overlap optimization hides behind the
# previous item's kernel time.
_COMM_STAGES = frozenset(
    ("java_marshal", "c_marshal", "opencl_setup", "transfer")
)


class _DeferredCharges:
    """Buffers ``tracer.charge`` calls during an overlap-mode item.

    ``Offloader(overlap=True)`` rescales the communication stage times
    *after* they are known (the hidden fraction depends on the previous
    item's kernel time), so live charges would put the unhidden values
    on the trace. Overlap items charge into this buffer instead and
    flush post-rescale — the trace clock then advances by exactly the
    nanoseconds the profiler records, same as non-overlap runs.
    """

    __slots__ = ("pending",)

    def __init__(self):
        self.pending = []

    def charge(self, name, ns, cat="stage", **args):
        self.pending.append((name, ns, cat, args))

    def flush(self, tracer, scale=1.0):
        """Emit (and drain) the buffered charges, applying ``scale`` to
        the communication stages only — kernel time is never hidden."""
        for name, ns, cat, args in self.pending:
            if scale != 1.0 and name in _COMM_STAGES:
                ns *= scale
            tracer.charge(name, ns, cat=cat, **args)
        self.pending = []


class LaunchRecord:
    """One stream item's marshalled inputs plus its accumulating stage
    times — the replayable unit of fleet failover.

    :meth:`CompiledFilter.prepare` builds the record (Java marshal →
    wire → C marshal → transfer, charged once);
    :meth:`CompiledFilter.run_prepared` executes from it. When the
    placed device faults mid-item, the fleet worker replays the *same*
    record on the next device — the marshal work is reused, only the
    bus transfer is paid again (:meth:`CompiledFilter.charge_failover`).
    """

    __slots__ = ("value", "device_values", "stages", "payload_bytes",
                 "deferred", "seq", "elided")

    def __init__(self, value=None, seq=0):
        self.value = value
        self.device_values = None
        self.stages = StageTimes()
        self.payload_bytes = 0
        self.deferred = None  # _DeferredCharges on overlap filters
        self.seq = seq
        # Parameters whose inbound marshal was elided because the value
        # was already resident on this filter's device (--fuse): a list
        # of (param_name, ResidentMeta). On failover to another device
        # these are the params with *no* host wire to replay — the
        # record re-materializes them from the host mirror, paying the
        # deferred d2h plus the full h2d marshal (docs/FUSION.md).
        self.elided = []


class CompiledFilter:
    """The offloaded worker for one filter task.

    Args:
        bound_values: values for worker parameters bound at task-creation
            time (``task Cls.m(bound...)``), by parameter name. The
            remaining parameter is the stream port.
    """

    def __init__(
        self,
        name,
        worker,
        plan,
        compiled_kernel,
        device,
        comm,
        profile,
        marshaller=marshal.SPECIALIZED,
        reduce_kernel=None,
        reduce_op=None,
        local_size=None,
        bound_values=None,
        direct_marshal=False,
        overlap=False,
        constant_fallback=None,
        max_sim_items=None,
        sanitizer=None,
        exec_tier=None,
        device_key=None,
    ):
        self.name = name
        self.worker = worker  # MethodDecl: for input/output Lime types
        self.plan = plan  # KernelPlan (None for pure reductions)
        self.compiled_kernel = compiled_kernel
        self.device = device
        self.comm = comm
        self.profile = profile
        self.marshaller = marshaller
        self.reduce_kernel = reduce_kernel
        self.reduce_op = reduce_op
        self.local_size = local_size or device.default_local_size
        self.bound_values = dict(bound_values or {})
        # Section 5.3's future-work optimizations, implemented as opt-ins:
        # - direct_marshal: "marshal directly to a format as required for
        #   device memory. This would approximately halve the marshaling
        #   overhead" — the C-side conversion disappears.
        # - overlap: "communication costs can be hidden by well-known
        #   pipelining techniques that overlap communication and
        #   computation" — each stream item's communication hides behind
        #   the previous item's kernel.
        self.direct_marshal = direct_marshal
        self.overlap = overlap
        # Lazily-compiled no-constant-memory variant: the compiler places
        # unbounded arrays in constant memory optimistically; the glue
        # checks the actual size at launch time and re-targets global
        # memory when the 64KB capacity is exceeded.
        self.constant_fallback = constant_fallback
        self.max_sim_items = max_sim_items  # None -> env var -> default
        # Guarded execution: a SanitizerConfig
        # (repro.runtime.sanitizer) arms per-launch bounds/race/
        # divergence/NaN checks and the watchdog; None is the seed path.
        self.sanitizer = sanitizer
        # Execution-tier request for kernel launches ("auto"/"batch"/
        # "per-item"); None defers to REPRO_EXEC_TIER, then auto.
        self.exec_tier = exec_tier
        # Fleet identity: the short device key ("gtx580") this filter's
        # launches run on. None outside fleet runs, which keeps kernel
        # charges arg-free and single-device traces byte-identical.
        self.device_key = device_key
        # Graph-level buffer planning (--fuse, compiler/fusion.py). The
        # planner flips these on legal => seams: emit_resident defers
        # the output's d2h bill into a ResidentMeta instead of charging
        # it; accept_resident elides the inbound marshal of a stream
        # value already resident on this device. Both default off, so
        # --fuse off is byte-identical to a build without the planner.
        self.emit_resident = False
        self.accept_resident = False
        # Fused-chain identity ("A+B") for composite filters; stamps
        # the per-item span so traces show the fused seam nesting.
        self.chain = None
        # Fault-injection hook: installed by the resilience layer
        # (repro.runtime.resilience); None means every stage is clean.
        self.injector = None
        # Retry policy for partitioned-relaunch chunks; the resilience
        # layer installs its own, otherwise defaults apply on first use.
        self.retry = None
        # Maximum binary-split depth for OOM-partitioned relaunch
        # (2**depth chunks at most); fleet runs set it from FleetPolicy.
        self.partition_depth = 4
        self._fallback_filter = None
        self._prev_kernel_ns = 0.0
        self.launches = 0
        self.last_timing = None

        bound_names = set(self.bound_values)
        free = [p for p in worker.params if p.name not in bound_names]
        if len(free) > 1:
            raise RuntimeFault(
                "worker '{}' has {} unbound parameters".format(name, len(free))
            )
        self.stream_param = free[0] if free else None
        self.param_types = {p.name: p.type for p in worker.params}

    # -- worker protocol -------------------------------------------------------

    def __call__(self, value=None):
        # One "item" span per stream-item invocation; the stage charges
        # nest under it, advancing the simulated clock by exactly the
        # nanoseconds the profiler records — so trace and profile can
        # never disagree. When tracing is off this is the NULL_TRACER
        # and every call here is a no-op.
        span_args = {"task": self.name, "seq": self.launches}
        if self.chain is not None:
            span_args["chain"] = self.chain
        with self.profile.tracer.span("item", cat="task", **span_args):
            record = self.prepare(value)
            return self.run_prepared(record)

    def prepare(self, value=None):
        """Marshal the worker's arguments once, returning a replayable
        :class:`LaunchRecord`. The fleet worker calls this on the first
        placed device's filter, then :meth:`run_prepared` — possibly on
        another device's filter after a failover."""
        record = LaunchRecord(value=value, seq=self.launches)
        if self.overlap:
            record.deferred = _DeferredCharges()
        sink = record.deferred or self.profile.tracer
        try:
            record.device_values = self._inbound(value, record, sink)
        except RuntimeFault as err:
            self._abandon(record, err)
            raise
        return record

    def run_prepared(self, record):
        """Execute + return path from an already-marshalled record. On
        a fault the record stays replayable: another device's filter
        can pick it up via :meth:`charge_failover` + this method."""
        stages = record.stages
        sink = record.deferred or self.profile.tracer
        try:
            try:
                result = self._execute(record.device_values, stages, sink)
            except _ConstantOverflow:
                if self._fallback_filter is None:
                    self._fallback_filter = self.constant_fallback()
                self._fallback_filter.injector = self.injector
                if record.deferred is not None:
                    record.deferred.flush(self.profile.tracer)
                return self._fallback_filter(record.value)
            result = self._outbound(result, stages, sink)
        except RuntimeFault as err:
            self._abandon(record, err)
            raise
        scale = 1.0
        if self.overlap and self.launches > 0:
            scale = self._hide_communication(stages)
        if record.deferred is not None:
            record.deferred.flush(self.profile.tracer, scale)
        self._prev_kernel_ns = stages.kernel
        self.profile.record(self.name, stages)
        self.launches += 1
        return result

    def _abandon(self, record, err):
        """A fault mid-path abandons this attempt: flush any deferred
        charges unscaled (the time was genuinely spent, and a hidden
        fraction is unknowable for an incomplete item) and expose the
        stage time already spent so the resilience layer can account it
        as recovery overhead ("time lost")."""
        if record.deferred is not None:
            record.deferred.flush(self.profile.tracer)
        err.partial_stages = record.stages

    def charge_failover(self, record):
        """Account the re-transfer when ``record`` is replayed on this
        filter's device after a failover: the marshalled wire payload
        crosses the bus again, but the marshal work itself is reused.

        Parameters whose inbound marshal was *elided* (``--fuse``: the
        value was resident on the failed device) have no reusable wire —
        they re-materialize from the last host-resident boundary: the
        producer's deferred d2h is settled (paid once), then the full
        h2d marshal + transfer is charged here. After that the param is
        ordinary marshalled payload for any further failover."""
        sink = record.deferred or self.profile.tracer
        if record.payload_bytes > 0:
            tns = self.comm.transfer_ns(record.payload_bytes)
            record.stages.transfer += tns
            sink.charge(
                "transfer",
                tns,
                cat="stage",
                bytes=record.payload_bytes,
                direction="h2d",
                failover=True,
            )
            self.profile.bytes_to_device += record.payload_bytes
            self.profile.metrics.inc(
                "transfer.bytes_to_device", record.payload_bytes
            )
        if not record.elided:
            return
        for param_name, meta in record.elided:
            marshal.settle_resident_meta(
                meta, self.profile, reason="failover"
            )
            jns = self.comm.java_marshal_ns(meta.stats)
            record.stages.java_marshal += jns
            sink.charge(
                "java_marshal", jns, cat="stage", param=param_name,
                failover=True,
            )
            if not self.direct_marshal:
                cns = self.comm.c_marshal_ns(meta.stats)
                record.stages.c_marshal += cns
                sink.charge(
                    "c_marshal", cns, cat="stage", param=param_name,
                    failover=True,
                )
            tns = self.comm.transfer_ns(meta.payload_bytes)
            record.stages.transfer += tns
            sink.charge(
                "transfer",
                tns,
                cat="stage",
                param=param_name,
                bytes=meta.payload_bytes,
                direction="h2d",
                failover=True,
            )
            self.profile.bytes_to_device += meta.payload_bytes
            self.profile.metrics.inc(
                "transfer.bytes_to_device", meta.payload_bytes
            )
            record.payload_bytes += meta.payload_bytes
        record.elided = []

    # -- journal wire format ---------------------------------------------------
    #
    # The recovery journal (repro.runtime.journal) persists stream items
    # in the exact wire format the marshaller already defines: the input
    # digest is hashed over the stream parameter's serialized bytes, and
    # a completed item's output is stored as its marshalled form. None
    # of these helpers charge simulated time — journalling is a host-
    # process concern, invisible to the cost model.

    def stream_wire(self, value):
        """``value`` serialized through the stream parameter's wire
        format (the journal's input digest / in-flight payload)."""
        if self.stream_param is None:
            return b""
        data, _stats = marshal.serialize(
            value, self.stream_param.type, self.marshaller
        )
        return data

    def stream_value_from_wire(self, data):
        """Rebuild a stream input from :meth:`stream_wire` bytes."""
        if self.stream_param is None:
            return None
        value, _stats = marshal.deserialize(
            data, self.stream_param.type, self.marshaller
        )
        return value

    def result_wire(self, result):
        """A completed item's output in marshalled wire form."""
        data, _stats = marshal.serialize(
            result, self.worker.return_type, self.marshaller
        )
        return data

    def result_from_wire(self, data):
        """Rebuild an output value from :meth:`result_wire` bytes —
        the same deserialize path :meth:`_outbound` uses, so a
        journal-skipped item yields the bit-exact value a recomputed
        one would."""
        value, _stats = marshal.deserialize(
            data, self.worker.return_type, self.marshaller
        )
        return value

    def _hide_communication(self, stages):
        """Double-buffered pipelining: this item's communication overlaps
        the previous item's kernel execution, so only the part exceeding
        that kernel time remains on the critical path. Returns the scale
        applied so deferred trace charges can match."""
        comm = (
            stages.java_marshal
            + stages.c_marshal
            + stages.opencl_setup
            + stages.transfer
        )
        if comm <= 0:
            return 1.0
        hidden = min(comm, self._prev_kernel_ns)
        scale = 1.0 - hidden / comm
        stages.java_marshal *= scale
        stages.c_marshal *= scale
        stages.opencl_setup *= scale
        stages.transfer *= scale
        return scale

    # -- inbound path ------------------------------------------------------------

    def _transmit(self, data, direction):
        """Move wire bytes across the (possibly faulty) link. The
        receiving end's CRC check — standard on real interconnects —
        detects injected corruption; the sender still holds the intact
        value, so the fault is retryable."""
        if self.injector is None:
            return data
        wire = self.injector.transmit(
            data, direction, self.name, device=self.device_key
        )
        if wire is not data and zlib.crc32(wire) != zlib.crc32(data):
            raise TransferFault(
                "task '{}': {} transfer failed the CRC check "
                "({} bytes)".format(self.name, direction, len(data))
            )
        return data

    def _inbound(self, value, record, sink):
        """Walk every worker argument through the wire format; returns a
        dict param-name -> device-side value. ``sink`` receives the
        stage charges (the tracer, or the record's deferred buffer in
        overlap mode)."""
        device_values = {}
        stages = record.stages
        items = list(self.bound_values.items())
        if self.stream_param is not None:
            items.append((self.stream_param.name, value))
        for param_name, host_value in items:
            lime_type = self.param_types[param_name]
            if self.accept_resident and self._elide_inbound(
                param_name, host_value, record, device_values
            ):
                continue
            data, stats = marshal.serialize(
                host_value, lime_type, self.marshaller
            )
            jns = self.comm.java_marshal_ns(stats)
            stages.java_marshal += jns
            sink.charge("java_marshal", jns, cat="stage", param=param_name)
            # The marshal cost above is charged before the wire check:
            # a corrupted transfer still paid for serialization, and the
            # resilience layer bills that time as recovery overhead.
            data = self._transmit(data, "h2d")
            device_value, c_stats = marshal.deserialize(
                data, lime_type, self.marshaller
            )
            if not self.direct_marshal:
                cns = self.comm.c_marshal_ns(c_stats)
                stages.c_marshal += cns
                sink.charge("c_marshal", cns, cat="stage", param=param_name)
            self.profile.bytes_to_device += stats.payload_bytes
            self.profile.metrics.inc(
                "transfer.bytes_to_device", stats.payload_bytes
            )
            record.payload_bytes += stats.payload_bytes
            tns = self.comm.transfer_ns(stats.payload_bytes)
            stages.transfer += tns
            sink.charge(
                "transfer",
                tns,
                cat="stage",
                param=param_name,
                bytes=stats.payload_bytes,
                direction="h2d",
            )
            device_values[param_name] = device_value
        return device_values

    def _elide_inbound(self, param_name, host_value, record, device_values):
        """Skip the whole inbound path for a stream value that is
        already resident on this filter's device (--fuse): no
        serialize, no CRC transmit, no charges — the device buffer is
        reused in place. Returns False when the value is host data,
        settled, or resident on a *different* device (in which case the
        deferred d2h is paid and the normal marshal path runs)."""
        if (
            self.stream_param is None
            or param_name != self.stream_param.name
        ):
            return False
        meta = marshal.resident_meta(host_value)
        if meta is None:
            return False
        if meta.settled or meta.device_key != self.device_key:
            # Resident elsewhere: force it back through the host
            # mirror. Pays the producer's deferred d2h exactly once,
            # then the consumer marshals normally.
            marshal.settle_resident_meta(
                meta, self.profile, reason="cross_device"
            )
            return False
        device_values[param_name] = np.asarray(host_value)
        record.elided.append((param_name, meta))
        saved = 2 * meta.payload_bytes  # the skipped d2h + h2d crossings
        self.profile.metrics.inc("transfer.bytes_saved", saved)
        self.profile.metrics.inc("fusion.elisions")
        self.profile.tracer.instant(
            "marshal_elided",
            cat="fusion",
            task=self.name,
            param=param_name,
            producer=meta.producer,
            bytes=saved,
        )
        return True

    def _index_space(self, device_values):
        """The kernel's logical size n (map elements / reduce length)."""
        meta = self.plan.kernel.meta if self.plan is not None else {}
        iota = meta.get("iota_source")
        if iota is not None:
            if iota.get("literal") is not None:
                return int(iota["literal"])
            return int(device_values[iota["param"]])
        source_param = meta.get("source_param")
        if source_param is None and self.stream_param is not None:
            source_param = self.stream_param.name
        source = device_values.get(source_param)
        if source is None:
            raise RuntimeFault("cannot determine the kernel index space")
        return int(np.asarray(source).shape[0])

    # -- execution ------------------------------------------------------------------

    def _make_guard(self, kernel_name):
        """A fresh per-launch guard (watchdog budget and trip counters
        are per launch); None when guarded execution is off."""
        if self.sanitizer is None or not self.sanitizer.instruments_launch():
            return None
        return LaunchGuard(self.sanitizer, kernel_name, task=self.name)

    def _launch_config(self, n):
        local = self.local_size
        items = min(max(n, 1), resolve_max_sim_items(self.max_sim_items))
        global_size = ((items + local - 1) // local) * local
        return global_size, local

    def _flat(self, device_values, param_name):
        value = device_values[param_name]
        return np.ascontiguousarray(value).reshape(-1)

    def _device_args(self):
        """Extra tracer-charge args in fleet runs: tagging kernel time
        with the device key gives each device its own Perfetto track.
        Empty outside fleet runs so single-device traces are unchanged."""
        if self.device_key is None:
            return {}
        return {"device": self.device_key}

    def _execute(self, device_values, stages, sink):
        plan = self.plan
        if plan is None:
            # Pure reduction over the stream input array.
            flat = self._flat(device_values, self.stream_param.name)
            return self._run_reduce(flat, len(flat), stages, sink)

        n = self._index_space(device_values)
        buffers = {}
        scalars = {}
        kernel = plan.kernel
        meta = kernel.meta
        if plan.input_binding is not None:
            source_param = meta.get("source_param") or self.stream_param.name
            buffers["_in"] = self._flat(device_values, source_param)
        out_dtype = np_dtype(plan.output_elem)
        out = np.zeros(n * plan.output_row, dtype=out_dtype)
        buffers["_out"] = out

        for entry in plan.arg_bindings:
            kind = entry[0]
            if kind == "scalar":
                spec = entry[1]
                if spec.kind == "literal":
                    scalars[spec.param_name] = spec.literal
                else:
                    scalars[spec.param_name] = device_values[spec.worker_param]
            else:
                spec, binding = entry[1], entry[2]
                buffers[binding.buffer] = self._flat(
                    device_values, spec.worker_param
                )
                scalars[binding.length_param] = int(
                    np.asarray(device_values[spec.worker_param]).shape[0]
                )

        self._check_constant_capacity(buffers)
        global_size, local = self._launch_config(n)
        for spill in plan.spill_buffers:
            buffers[spill.buffer] = np.zeros(
                global_size * spill.spill_size, dtype=np_dtype(spill.elem)
            )
        scalars["_n"] = n

        n_buffers = len(buffers)
        total_bytes = sum(buf.nbytes for buf in buffers.values())
        oom = None
        if self.injector is not None:
            try:
                self.injector.maybe_oom(
                    self.name, total_bytes, device=self.device_key
                )
            except DeviceOOM:
                if not self._can_partition(n):
                    raise
                oom = True
        if oom:
            self._partitioned_launch(
                kernel, buffers, scalars, n, total_bytes, stages, sink
            )
        else:
            self._launch_once(
                kernel, buffers, scalars, global_size, local, stages, sink
            )
        if self.injector is not None:
            # Silent output corruption: no fault is raised and no CRC
            # fails — only sampled differential validation catches it.
            self.injector.maybe_corrupt_output(
                out, self.name, device=self.device_key
            )

        if self.reduce_kernel is not None:
            return self._run_reduce(out, len(out), stages, sink)
        return out

    def _launch_once(
        self, kernel, buffers, scalars, global_size, local, stages, sink,
        index_base=0,
    ):
        """One NDRange launch plus its simulated-time accounting."""
        trace = self.compiled_kernel.launch(
            buffers,
            scalars,
            global_size,
            local,
            injector=self.injector,
            guard=self._make_guard(kernel.name),
            tier=self.exec_tier,
            tracer=self.profile.tracer,
            index_base=index_base,
            device=self.device_key,
        )
        timing = time_launch(trace, self.device)
        if self.injector is not None:
            # Straggler injection: a slow device's launches take longer
            # before any accounting happens, so the histogram, the
            # health monitor, and the hedge budget all see the
            # degraded time.
            timing.kernel_ns += self.injector.launch_latency_ns(
                timing.kernel_ns, device=self.device_key
            )
        self.last_timing = timing
        stages.kernel += timing.kernel_ns
        charge_args = self._device_args()
        if index_base:
            charge_args["index_base"] = index_base
        sink.charge(
            "kernel",
            timing.kernel_ns,
            cat="stage",
            kernel=kernel.name,
            tier=trace.tier,
            global_size=global_size,
            **charge_args,
        )
        setup_ns = self.comm.setup_ns(buffers=len(buffers), launches=1)
        stages.opencl_setup += setup_ns
        sink.charge(
            "opencl_setup", setup_ns, cat="stage", buffers=len(buffers)
        )
        self.profile.kernel_launches += 1
        self.profile.record_tier(trace.tier)
        self.profile.metrics.histogram("kernel.launch_ns").observe(
            timing.kernel_ns
        )
        if self.device_key is not None:
            self.profile.metrics.histogram(
                "kernel.launch_ns.{}".format(self.device_key)
            ).observe(timing.kernel_ns)
        return timing

    def _can_partition(self, n):
        """OOM-partitioned relaunch is safe only for kernels with no
        group-level structure (barriers, local-memory tiling): chunk
        launches offset the global id via ``index_base``, which keeps
        absolute indexing (iota values, spill rows) correct but changes
        group shapes. ``batch_supported`` is exactly that conservative
        eligibility bit."""
        return (
            self.plan is not None
            and n >= 2
            and bool(self.compiled_kernel.batch_supported)
        )

    def _partitioned_launch(
        self, kernel, buffers, scalars, n, total_bytes, stages, sink
    ):
        """Device OOM recovery: split the index space ``[0, n)`` in half
        recursively (binary, at most ``partition_depth`` deep) until each
        chunk's estimated footprint fits, and launch the chunks
        back-to-back on the same buffers with ``index_base`` offsets.
        The union of grid-stride chunk launches covers exactly the
        original index space, so results are bit-identical. Chunks that
        hit transient launch faults retry under the retry policy."""
        from repro.runtime.resilience import RetryPolicy

        plan = self.plan
        retry = self.retry or RetryPolicy()
        ledger = self.profile.faults
        chunks = [0]

        def launch_chunk(lo, hi):
            global_size, local = self._launch_config(hi - lo)
            chunk_scalars = dict(scalars)
            chunk_scalars["_n"] = hi
            chunk_buffers = dict(buffers)
            for spill in plan.spill_buffers:
                # Spill rows are indexed by absolute global id, so a
                # chunk needs (index_base + global_size) rows.
                chunk_buffers[spill.buffer] = np.zeros(
                    (lo + global_size) * spill.spill_size,
                    dtype=np_dtype(spill.elem),
                )
            attempt = 0
            while True:
                try:
                    self._launch_once(
                        kernel,
                        chunk_buffers,
                        chunk_scalars,
                        global_size,
                        local,
                        stages,
                        sink,
                        index_base=lo,
                    )
                except LaunchFault as err:
                    ledger.record_fault(self.name, err.stage)
                    if attempt >= retry.max_retries:
                        raise
                    backoff = retry.backoff_ns(attempt)
                    ledger.record_retry(self.name)
                    ledger.add_time_lost(self.name, backoff)
                    self.profile.record_recovery(self.name, backoff)
                    sink.charge(
                        "retry_backoff",
                        backoff,
                        cat="recovery",
                        task=self.name,
                        attempt=attempt + 1,
                        chunk=lo,
                    )
                    attempt += 1
                    continue
                chunks[0] += 1
                return

        def run_range(lo, hi, depth):
            frac = (hi - lo) / float(n)
            try:
                self.injector.maybe_oom(
                    self.name, total_bytes * frac, device=self.device_key
                )
            except DeviceOOM:
                if depth >= self.partition_depth or hi - lo <= 1:
                    raise
                mid = (lo + hi) // 2
                run_range(lo, mid, depth + 1)
                run_range(mid, hi, depth + 1)
                return
            launch_chunk(lo, hi)

        mid = (n + 1) // 2
        run_range(0, mid, 1)
        run_range(mid, n, 1)
        ledger.record_partition(self.name, chunks[0])
        self.profile.tracer.instant(
            "partitioned_relaunch",
            cat="recovery",
            task=self.name,
            kernel=kernel.name,
            chunks=chunks[0],
            n=n,
            **self._device_args(),
        )

    def _check_constant_capacity(self, buffers):
        constant_bytes = sum(
            buffers[p.name].nbytes
            for p in self.plan.kernel.params
            if p.is_pointer and p.space is Space.CONSTANT and p.name in buffers
        )
        if (
            constant_bytes > self.device.constant_memory_bytes
            and self.constant_fallback is not None
        ):
            raise _ConstantOverflow()

    def _run_reduce(self, flat_input, n, stages, sink):
        local = self.local_size
        groups = min((n + local - 1) // local, 64) or 1
        partials = np.zeros(groups, dtype=flat_input.dtype)
        if self.injector is not None:
            self.injector.maybe_oom(
                self.name,
                flat_input.nbytes + partials.nbytes,
                device=self.device_key,
            )
        trace = self.reduce_kernel.launch(
            {"_in": flat_input, "_out": partials},
            {"_n": n},
            groups * local,
            local,
            injector=self.injector,
            guard=self._make_guard(self.reduce_kernel.kernel.name),
            tier=self.exec_tier,
            tracer=self.profile.tracer,
            device=self.device_key,
        )
        timing = time_launch(trace, self.device)
        if self.injector is not None:
            timing.kernel_ns += self.injector.launch_latency_ns(
                timing.kernel_ns, device=self.device_key
            )
        stages.kernel += timing.kernel_ns
        sink.charge(
            "kernel",
            timing.kernel_ns,
            cat="stage",
            kernel=self.reduce_kernel.kernel.name,
            tier=trace.tier,
            global_size=groups * local,
            **self._device_args(),
        )
        setup_ns = self.comm.setup_ns(buffers=2, launches=1)
        stages.opencl_setup += setup_ns
        sink.charge("opencl_setup", setup_ns, cat="stage", buffers=2)
        self.profile.kernel_launches += 1
        self.profile.record_tier(trace.tier)
        self.profile.metrics.histogram("kernel.launch_ns").observe(
            timing.kernel_ns
        )
        if self.device_key is not None:
            self.profile.metrics.histogram(
                "kernel.launch_ns.{}".format(self.device_key)
            ).observe(timing.kernel_ns)
        op = self.reduce_op
        if op == "+":
            result = partials.sum()
        elif op == "*":
            result = partials.prod()
        elif op == "min":
            result = partials.min()
        elif op == "max":
            result = partials.max()
        else:
            raise RuntimeFault("unknown reduction op '{}'".format(op))
        value = result.item()
        return float(value) if partials.dtype.kind == "f" else int(value)

    # -- outbound path -----------------------------------------------------------------

    def _outbound(self, result, stages, sink):
        return_type = self.worker.return_type
        if not isinstance(return_type, ArrayType):
            # Scalar result: negligible wire cost; the API round trip is
            # already charged via setup.
            return result
        if self.plan is not None and self.plan.output_row > 1:
            result = result.reshape(-1, self.plan.output_row)
        if self.emit_resident:
            return self._outbound_resident(result, return_type)
        data, c_stats = marshal.serialize(result, return_type, self.marshaller)
        data = self._transmit(data, "d2h")
        if not self.direct_marshal:
            cns = self.comm.c_marshal_ns(c_stats)
            stages.c_marshal += cns
            sink.charge("c_marshal", cns, cat="stage", direction="d2h")
        value, j_stats = marshal.deserialize(data, return_type, self.marshaller)
        jns = self.comm.java_marshal_ns(j_stats)
        stages.java_marshal += jns
        sink.charge("java_marshal", jns, cat="stage", direction="d2h")
        self.profile.bytes_from_device += c_stats.payload_bytes
        self.profile.metrics.inc(
            "transfer.bytes_from_device", c_stats.payload_bytes
        )
        tns = self.comm.transfer_ns(c_stats.payload_bytes)
        stages.transfer += tns
        sink.charge(
            "transfer",
            tns,
            cat="stage",
            bytes=c_stats.payload_bytes,
            direction="d2h",
        )
        return value

    def _outbound_resident(self, result, return_type):
        """The buffer-planner outbound (--fuse): the output buffer stays
        on this device. The value still takes the full serialize →
        deserialize round trip — the wire format is the canonical value
        representation, so the host mirror is bit-exact with what the
        normal path returns — but *nothing* is charged and no bytes
        cross the bus; the d2h bill it would have paid is deferred into
        the returned value's :class:`~repro.runtime.marshal
        .ResidentMeta`, settled exactly once by whoever forces the
        value back to the host (fused same-device consumers never do)."""
        data, c_stats = marshal.serialize(
            result, return_type, self.marshaller
        )
        value, j_stats = marshal.deserialize(
            data, return_type, self.marshaller
        )
        d2h_c_ns = (
            0.0 if self.direct_marshal else self.comm.c_marshal_ns(c_stats)
        )
        meta = marshal.ResidentMeta(
            producer=self.name,
            device_key=self.device_key,
            payload_bytes=c_stats.payload_bytes,
            stats=c_stats,
            d2h_c_ns=d2h_c_ns,
            d2h_j_ns=self.comm.java_marshal_ns(j_stats),
            d2h_t_ns=self.comm.transfer_ns(c_stats.payload_bytes),
        )
        return marshal.make_resident(value, meta)
