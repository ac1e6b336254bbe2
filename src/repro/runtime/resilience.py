"""Fault-tolerant offload: injection, retry/backoff, and host demotion.

The paper's runtime promise is that host and device execution are
fungible — "the compiler and runtime system coordinate to automatically
orchestrate communication and computation", and a filter that cannot run
on the device transparently runs on the host. The seed honored that
promise only at *compile* time (:class:`repro.errors.KernelRejected`);
this module extends it to *run* time, treating a mid-stream device fault
as a schedulable event rather than a crash (StarPU-style task runtimes,
TornadoVM-style JIT fallback):

- :class:`FaultInjector` — a deterministic, seedable fault source that
  corrupts wire transfers, fails kernel launches, and simulates device
  OOM at configurable per-stage probabilities. It is hooked into the
  generated glue (:mod:`repro.backend.glue`) and the kernel executor
  (:mod:`repro.opencl.executor`).
- :class:`RetryPolicy` — bounded retries with deterministic exponential
  backoff, accounted in simulated nanoseconds through the
  :class:`repro.runtime.profiler.ExecutionProfile` ``recovery`` stage.
- :class:`CircuitBreaker` — per-task: after N *consecutive* device
  faults the filter is demoted to its host-interpreter worker for the
  rest of the run (the engine already builds both workers; demotion
  reuses ``Engine._host_worker``).
- :class:`ResilientWorker` — the worker wrapper the engine installs
  around every offloaded filter when resilience is enabled. Because the
  host interpreter and the simulated device compute identical results,
  retries and demotions never change program output — only the failure
  ledger and the recovery stage time.
- :class:`HealthMonitor` / :class:`FleetPolicy` — the fleet-scheduling
  brain (StarPU-style): per-device health scored from observed
  ``kernel.launch_ns`` samples and per-device circuit breakers, with
  slow-device demotion *before* the breaker trips and cooloff probes
  that re-promote a recovered device. Consumed by
  :class:`repro.runtime.fleet.DeviceFleet`.

Everything here is simulation-deterministic: the same seed and the same
program produce the same faults, the same recovery path, and the same
ledger, which is what keeps the regenerated figures reproducible even
under injection.
"""

from __future__ import annotations

import random
import statistics
import threading
import zlib
from dataclasses import asdict, dataclass, replace

from repro.errors import DeviceOOM, LaunchFault, RuntimeFault, SanitizerFault, ValidationFault
from repro.runtime.sanitizer import values_equal
from repro.runtime.tracing import NULL_TRACER, MetricsRegistry


@dataclass(frozen=True)
class FaultSpec:
    """Per-stage fault probabilities plus the RNG seed.

    ``transfer`` is the probability that any one host↔device transfer
    delivers corrupted bytes; ``launch`` the probability a kernel launch
    fails; ``oom`` the probability buffer allocation for a launch
    reports out-of-memory. ``silent`` is the probability a kernel's
    output buffer is corrupted *silently* — no exception, no CRC
    mismatch; only sampled differential validation
    (``--validate-every``) can catch it. All default to 0.0
    (injection off).

    ``oom_bytes`` is a *deterministic* OOM mode orthogonal to the
    probabilistic ``oom``: any single allocation request larger than
    the threshold reports out-of-memory, every time. This models a
    device with a hard memory ceiling (rather than a flaky allocator)
    and is what exercises the glue's partitioned-relaunch path — a
    launch split into small enough chunks always fits. 0 disables it.

    ``slow``/``slow_after``/``slow_ramp``/``jitter`` are the *latency*
    fault model (stragglers rather than failures): every kernel launch
    on an affected device takes ``slow`` × its modeled time, starting
    at launch number ``slow_after`` on that device; with a positive
    ``slow_ramp`` the factor degrades linearly from 1.0 to ``slow``
    over that many launches instead of stepping. ``jitter`` adds up to
    that fraction of the modeled time as deterministic per-device
    noise. Slow launches raise no exception — they are exactly what
    the health monitor's slow-demotion and the fleet's hedged launches
    exist to absorb.
    """

    transfer: float = 0.0
    launch: float = 0.0
    oom: float = 0.0
    silent: float = 0.0
    seed: int = 0
    oom_bytes: int = 0
    slow: float = 1.0
    slow_after: int = 0
    slow_ramp: int = 0
    jitter: float = 0.0

    @classmethod
    def uniform(cls, p, seed=0, silent=0.0):
        """The CLI's ``--faults P`` shape: the same probability at every
        *loud* injection point. Silent corruption stays opt-in
        (``--silent-faults``) because without validation sampling it is
        by construction undetectable."""
        return cls(transfer=p, launch=p, oom=p, silent=silent, seed=seed)

    def enabled(self):
        return (
            self.transfer > 0
            or self.launch > 0
            or self.oom > 0
            or self.silent > 0
            or self.oom_bytes > 0
            or self.slow > 1.0
            or self.jitter > 0
        )


class FaultInjector:
    """Deterministic fault source shared by all of one run's filters.

    The injector draws from a single seeded stream in simulation order,
    so a run is reproducible fault-for-fault given the same seed and
    workload. ``injected`` counts fired faults by stage.

    Fleet runs route every injection point through an optional device
    key: ``device_specs`` overrides the base spec for a named device
    (so one fleet member can be flaky while the rest stay clean), and
    ``kill_after`` is a per-device kill switch — launch number N and
    every launch after it on that device fails with a
    :class:`repro.errors.LaunchFault`, which is how the chaos tests
    take a device down mid-stream deterministically.
    """

    def __init__(self, spec, device_specs=None, kill_after=None):
        self.spec = spec
        self.device_specs = dict(device_specs or {})
        self.kill_after = dict(kill_after or {})
        self._rng = random.Random(spec.seed)
        self._launches = {}  # device key -> launches attempted so far
        self._timed = {}  # device key -> latency-scaled launches so far
        # Jitter draws from per-device streams, separate from the
        # shared fault stream: slowing one device must not reorder the
        # transfer/launch/oom/silent decisions of the others.
        self._jitter_rngs = {}
        self.injected = {
            "transfer": 0, "launch": 0, "oom": 0, "silent": 0, "latency": 0,
        }

    def _fire(self, p):
        return p > 0.0 and self._rng.random() < p

    def _spec_for(self, device):
        if device is not None and device in self.device_specs:
            return self.device_specs[device]
        return self.spec

    def kill_device(self, device, after=0):
        """Arm the kill switch: every launch on ``device`` after the
        first ``after`` successful ones fails. ``after=0`` kills the
        device before it ever runs."""
        self.kill_after[device] = int(after)

    # -- injection points (called from glue.py / executor.py) ---------------

    def transmit(self, data, direction, task_name, device=None):
        """Pass wire bytes through the (faulty) link; may return a copy
        with a single bit flipped. ``direction`` is "h2d" or "d2h". The
        receiving side detects corruption via the simulated CRC check in
        the glue and raises :class:`repro.errors.TransferFault`."""
        if not self._fire(self._spec_for(device).transfer):
            return data
        corrupted = bytearray(data)
        if not corrupted:
            return data
        pos = self._rng.randrange(len(corrupted))
        corrupted[pos] ^= 1 << self._rng.randrange(8)
        self.injected["transfer"] += 1
        return bytes(corrupted)

    def maybe_fail_launch(self, kernel_name, device=None):
        """Called by the executor at the top of every launch."""
        count = self._launches.get(device, 0)
        self._launches[device] = count + 1
        if device in self.kill_after and count >= self.kill_after[device]:
            self.injected["launch"] += 1
            raise LaunchFault(
                "injected device kill: device '{}' is down (kernel "
                "'{}')".format(device, kernel_name)
            )
        if self._fire(self._spec_for(device).launch):
            self.injected["launch"] += 1
            raise LaunchFault(
                "injected launch failure in kernel '{}'".format(kernel_name)
            )

    def _slow_factor(self, spec, count):
        if spec.slow <= 1.0 or count < spec.slow_after:
            return 1.0
        if spec.slow_ramp > 0:
            step = count - spec.slow_after
            if step < spec.slow_ramp:
                return 1.0 + (spec.slow - 1.0) * (step + 1) / spec.slow_ramp
        return spec.slow

    def _jitter_rng(self, device):
        rng = self._jitter_rngs.get(device)
        if rng is None:
            salt = zlib.crc32(repr(device).encode("utf-8"))
            rng = random.Random((self.spec.seed << 32) ^ salt)
            self._jitter_rngs[device] = rng
        return rng

    def launch_latency_ns(self, kernel_ns, device=None):
        """Called by the glue after timing every kernel launch: the
        extra simulated ns this launch takes beyond the analytic model
        (the straggler fault — slow-device factors, degradation ramps,
        per-device jitter). Never raises; 0.0 when the device is
        unaffected."""
        spec = self._spec_for(device)
        count = self._timed.get(device, 0)
        self._timed[device] = count + 1
        extra = float(kernel_ns) * (self._slow_factor(spec, count) - 1.0)
        if spec.jitter > 0.0:
            extra += (
                float(kernel_ns)
                * spec.jitter
                * self._jitter_rng(device).random()
            )
        if extra > 0.0:
            self.injected["latency"] += 1
        return extra

    def maybe_oom(self, task_name, nbytes, device=None):
        """Called by the glue after sizing a launch's buffers."""
        spec = self._spec_for(device)
        if spec.oom_bytes and nbytes > spec.oom_bytes:
            self.injected["oom"] += 1
            raise DeviceOOM(
                "injected device OOM: {} bytes exceeds the {}-byte device "
                "ceiling for task '{}'".format(
                    int(nbytes), int(spec.oom_bytes), task_name
                )
            )
        if self._fire(spec.oom):
            self.injected["oom"] += 1
            raise DeviceOOM(
                "injected device OOM allocating {} bytes for task "
                "'{}'".format(int(nbytes), task_name)
            )

    def maybe_corrupt_output(self, out, task_name, device=None):
        """Called by the glue after a successful kernel launch: may
        silently perturb one element of the output buffer in place.
        Nothing raises and no checksum fails — this models the
        silently-wrong kernel that only differential validation
        catches."""
        if not self._fire(self._spec_for(device).silent) or out.size == 0:
            return
        pos = self._rng.randrange(out.size)
        flat = out.reshape(-1)
        if flat.dtype.kind == "f":
            flat[pos] = flat[pos] * 2.0 + 1.0
        elif flat.dtype.kind == "b":
            flat[pos] = not flat[pos]
        else:
            flat[pos] = flat[pos] ^ 1
        self.injected["silent"] += 1


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    ``backoff_ns(attempt)`` is the simulated wait before re-attempt
    ``attempt`` (0-based): ``base_backoff_ns * multiplier ** attempt``.
    """

    max_retries: int = 2
    base_backoff_ns: float = 20_000.0
    multiplier: float = 2.0

    def backoff_ns(self, attempt):
        return self.base_backoff_ns * self.multiplier ** attempt


class CircuitBreaker:
    """Per-task: opens after ``threshold`` consecutive device faults.

    A successful device completion resets the count. Once open, the
    task runs on the host. With ``cooloff=None`` (the default) the
    breaker never closes again for the rest of the run — the simulated
    device is presumed bad for this filter. With an integer ``cooloff``
    the breaker is *half-open* after that many successful host runs:
    the next stream item probes the device once; a clean probe closes
    the breaker (the task is re-promoted to the device), a fault snaps
    it back open and the cooloff count restarts.

    States: ``closed`` → (threshold consecutive faults) → ``open`` →
    (cooloff host successes) → ``half_open`` → probe success →
    ``closed`` / probe fault → ``open``.
    """

    def __init__(self, threshold=3, cooloff=None):
        self.threshold = threshold
        self.cooloff = cooloff
        self.consecutive = 0
        self.state = "closed"
        self.host_successes = 0

    @property
    def open(self):
        return self.state == "open"

    @property
    def half_open(self):
        return self.state == "half_open"

    def record_fault(self):
        self.consecutive += 1
        if self.state == "half_open":
            # The probe failed: straight back to the host.
            self.state = "open"
            self.host_successes = 0
        elif self.consecutive >= self.threshold:
            self.state = "open"
            self.host_successes = 0
        return self.open

    def record_success(self):
        self.consecutive = 0
        if self.state == "half_open":
            self.state = "closed"  # probe succeeded: re-promoted

    def record_host_success(self):
        """One stream item completed on the host while the breaker was
        open; returns True when this transitions the breaker to
        half-open (the next item probes the device)."""
        if self.state != "open" or self.cooloff is None:
            return False
        self.host_successes += 1
        if self.host_successes >= self.cooloff:
            self.state = "half_open"
            self.host_successes = 0
            return True
        return False


@dataclass(frozen=True)
class FleetPolicy:
    """Scheduling and failover knobs for a device fleet.

    ``policy`` selects the placement strategy: ``"health"`` ranks
    devices by observed median ``kernel.launch_ns`` (unexplored devices
    are tried first so every fleet member gets scored), while
    ``"round-robin"`` rotates placements across healthy devices.

    A device is demoted — dropped to failover-target-of-last-resort —
    either when its per-device circuit breaker trips
    (``breaker_threshold`` consecutive faults) or *earlier*, when its
    median launch time over the last ``window`` samples reaches
    ``slow_factor`` × the median of the rest of the fleet: slow **for
    this workload** is a health signal the breaker never sees. After
    ``cooloff`` placements elsewhere, the next stream item probes the
    demoted device; a clean, fast probe re-promotes it, a faulted or
    still-slow probe re-demotes it and restarts the cooloff.

    ``partition_depth`` bounds the glue's OOM-partitioned relaunch: an
    out-of-memory NDRange is split in half at most this many times
    (≤ 2**depth chunks) before the OOM is surfaced to the retry layer.

    ``schedule`` selects the fleet's dispatch model (see
    docs/CONCURRENCY.md): ``"concurrent"`` (the default) submits every
    independent stream item at its dispatch time and lets per-device
    command queues advance in parallel — placement picks the earliest
    estimated finish (queue cursor + observed median) among healthy
    devices — while ``"sequential"`` serializes items globally (each
    item is submitted when the previous one completed, placement
    follows the health order unchanged), reproducing the
    one-item-in-flight fleet as the makespan comparison baseline.
    Checksums are schedule-invariant; only timestamps and placement
    move.

    ``dispatch_seed`` (non-zero) deterministically permutes the
    concurrent schedule's healthy-candidate ranking per item — the
    schedule-exploration knob the fuzz harness uses to assert that
    results do not depend on dispatch order.

    ``hedge`` (``"on"`` under the concurrent schedule) arms tail
    tolerance: when an attempt's measured launch time exceeds
    ``hedge_factor`` × the ``hedge_quantile`` of the fleet-wide
    ``kernel.launch_ns`` histogram (once it holds at least
    ``hedge_min_samples`` observations), a duplicate is submitted to
    the next-best queue and the first completion wins; the loser is
    cancelled with its queue cursor credited (see docs/HEDGING.md).

    ``redundancy`` (``"vote"``) executes selected launches on a second
    device and compares output digests; a disagreement raises a typed
    :class:`~repro.errors.VoteMismatchFault` through the normal
    breaker/ledger machinery.
    """

    policy: str = "health"
    slow_factor: float = 4.0
    window: int = 8
    min_samples: int = 3
    cooloff: int = 4
    breaker_threshold: int = 3
    partition_depth: int = 4
    schedule: str = "concurrent"
    dispatch_seed: int = 0
    hedge: str = "off"
    hedge_quantile: float = 0.95
    hedge_factor: float = 3.0
    hedge_min_samples: int = 8
    redundancy: str = "off"


class DeviceHealth:
    """Mutable per-device record inside a :class:`HealthMonitor`."""

    def __init__(self, key, index, policy):
        self.key = key
        self.index = index  # registration order, the deterministic tiebreak
        self.window = policy.window
        self.state = "healthy"  # "healthy" | "demoted"
        self.probing = False
        self.reason = None
        self.samples = []  # sliding window of kernel.launch_ns
        self.breaker = CircuitBreaker(policy.breaker_threshold)
        self.launches = 0
        self.faults = 0
        self.demotions = 0
        self.promotions = 0
        self.idle = 0  # placements elsewhere since demotion

    @property
    def healthy(self):
        return self.state == "healthy"

    def observe(self, ns):
        self.launches += 1
        self.samples.append(float(ns))
        if len(self.samples) > self.window:
            del self.samples[0]

    def median_ns(self):
        return statistics.median(self.samples) if self.samples else 0.0


class HealthMonitor:
    """Health scoring and placement ordering for a device fleet.

    The monitor is fed by the fleet worker after every launch
    (:meth:`observe_success` with the item's ``kernel.launch_ns``) and
    every device fault (:meth:`observe_fault`); :meth:`placement_order`
    returns the per-item device preference list. All decisions are
    functions of observed simulated time and fault counts, so a seeded
    run schedules identically every time.

    Health state is published through the run's
    :class:`~repro.runtime.tracing.MetricsRegistry` (``fleet.demotions``
    / ``fleet.promotions`` counters, per-device ``fleet.score.<key>``
    median gauges) and as tracer instants (``device_demoted``,
    ``device_promoted``, ``device_probe_failed``) so Perfetto shows
    scheduling decisions on the timeline.
    """

    def __init__(self, keys, policy=None):
        self.policy = policy or FleetPolicy()
        self.devices = {}
        for index, key in enumerate(keys):
            if key in self.devices:
                raise ValueError("duplicate fleet device '{}'".format(key))
            self.devices[key] = DeviceHealth(key, index, self.policy)
        if not self.devices:
            raise ValueError("a device fleet needs at least one device")
        self.metrics = MetricsRegistry()
        self.tracer = NULL_TRACER
        self._seq = 0
        # One monitor may serve many concurrent sessions (the serving
        # daemon's shared fleet): observations and placement decisions
        # mutate shared windows/breakers, so they serialize here.
        self._lock = threading.RLock()

    def bind(self, profile):
        """Point health bookkeeping at a run's profile (metrics registry
        and tracer). Called by the fleet offloader at compile time."""
        self.metrics = profile.metrics
        self.tracer = profile.tracer

    # -- observations --------------------------------------------------------

    def fleet_median_ns(self, exclude=None):
        """Median of the per-device median launch times, excluding
        ``exclude`` — the peer baseline a device is judged against."""
        medians = [
            h.median_ns()
            for key, h in self.devices.items()
            if key != exclude and h.samples
        ]
        return statistics.median(medians) if medians else 0.0

    def _is_slow(self, ns, exclude):
        fleet = self.fleet_median_ns(exclude=exclude)
        return fleet > 0.0 and ns >= self.policy.slow_factor * fleet

    def observe_success(self, key, kernel_ns):
        """A stream item completed on ``key`` with ``kernel_ns`` of
        simulated kernel time."""
        with self._lock:
            h = self.devices[key]
            if h.probing:
                # Judge the probe on its own launch time, not the stale
                # pre-demotion window.
                h.probing = False
                if self._is_slow(kernel_ns, exclude=key):
                    self._probe_failed(h, "slow")
                    h.observe(kernel_ns)
                    return
                self._promote(h, kernel_ns)
                return
            h.breaker.record_success()
            h.observe(kernel_ns)
            self.metrics.gauge("fleet.score.{}".format(key)).set(h.median_ns())
            if (
                h.healthy
                and len(h.samples) >= self.policy.min_samples
                and self._is_slow(h.median_ns(), exclude=key)
            ):
                self._demote(h, "slow")

    def observe_fault(self, key, stage=None):
        """A device-side fault on ``key`` (any stage)."""
        with self._lock:
            h = self.devices[key]
            h.faults += 1
            tripped = h.breaker.record_fault()
            if h.probing:
                h.probing = False
                self._probe_failed(h, stage or "faults")
                return
            if h.healthy and tripped:
                self._demote(h, "faults")

    # -- state transitions ---------------------------------------------------

    def _demote(self, h, reason):
        h.state = "demoted"
        h.reason = reason
        h.idle = 0
        h.probing = False
        h.demotions += 1
        self.metrics.inc("fleet.demotions")
        self.tracer.instant(
            "device_demoted", cat="fleet", device=h.key, reason=reason
        )

    def _probe_failed(self, h, reason):
        h.reason = reason
        h.idle = 0
        self.tracer.instant(
            "device_probe_failed", cat="fleet", device=h.key, reason=reason
        )

    def _promote(self, h, kernel_ns=None):
        h.state = "healthy"
        h.reason = None
        h.probing = False
        h.idle = 0
        h.promotions += 1
        # Fresh breaker and a fresh sample window: the device earns its
        # place back from the probe observation onward.
        h.breaker = CircuitBreaker(self.policy.breaker_threshold)
        h.samples = [float(kernel_ns)] if kernel_ns is not None else []
        self.metrics.inc("fleet.promotions")
        self.tracer.instant("device_promoted", cat="fleet", device=h.key)

    # -- placement -----------------------------------------------------------

    def placement_order(self):
        """The device preference order for the next stream item: a
        demoted device due for its cooloff probe first (it gets the real
        workload as its probe), then healthy devices — unexplored before
        scored, fastest median first — then the remaining demoted
        devices as failover targets of last resort."""
        return [key for key, _kind, _est in self.placement_plan()]

    def placement_plan(self):
        """Like :meth:`placement_order` but annotated for the fleet's
        concurrent dispatcher: a list of ``(key, kind, estimate_ns)``
        tuples in health-preference order, where ``kind`` is
        ``"probe"`` / ``"healthy"`` / ``"benched"`` and ``estimate_ns``
        is the device's observed median launch time (0.0 when
        unscored). Mutates the same probe/cooloff state as
        :meth:`placement_order` — one call per stream item."""
        with self._lock:
            seq = self._seq
            self._seq += 1
            healthy = [h for h in self.devices.values() if h.healthy]
            demoted = [h for h in self.devices.values() if not h.healthy]
            for h in demoted:
                if not h.probing and healthy:
                    h.idle += 1
                    if h.idle >= self.policy.cooloff:
                        h.probing = True
                        h.idle = 0
            probes = [h for h in demoted if h.probing]
            benched = sorted(
                (h for h in demoted if not h.probing), key=lambda h: h.index
            )
            if self.policy.policy == "round-robin":
                ring = sorted(healthy, key=lambda h: h.index)
                if ring:
                    rot = seq % len(ring)
                    ranked = ring[rot:] + ring[:rot]
                else:
                    ranked = []
            else:
                least = self.policy.min_samples
                fresh = sorted(
                    (h for h in healthy if len(h.samples) < least),
                    key=lambda h: (len(h.samples), h.index),
                )
                scored = sorted(
                    (h for h in healthy if len(h.samples) >= least),
                    key=lambda h: (h.median_ns(), h.index),
                )
                ranked = fresh + scored
            plan = []
            for h in probes[:1]:
                plan.append((h.key, "probe", h.median_ns()))
            for h in ranked:
                plan.append((h.key, "healthy", h.median_ns()))
            for h in probes[1:]:
                plan.append((h.key, "probe", h.median_ns()))
            for h in benched:
                plan.append((h.key, "benched", h.median_ns()))
            return plan

    def snapshot(self):
        """JSON-able per-device health summary for RunResult / the CLI.

        Keys are canonically sorted: registration order must not leak
        into ``--json`` output or the serving daemon's report (two
        fleets over the same device set in different order would
        otherwise render different bytes)."""
        with self._lock:
            return {
                key: {
                    "state": h.state,
                    "reason": h.reason,
                    "launches": h.launches,
                    "faults": h.faults,
                    "demotions": h.demotions,
                    "promotions": h.promotions,
                    "median_launch_ns": h.median_ns(),
                }
                for key, h in sorted(self.devices.items())
            }

    def replay(self, events):
        """Journal replay: re-apply a recorded placement/observation
        event stream (``FleetWorker.journal_log``) without re-emitting
        metrics or trace — those are restored separately from the
        journaled metrics delta. Every health transition is a
        deterministic function of the observation stream, so replaying
        it reproduces windows, breakers, probing, and idle counts
        exactly."""
        with self._lock:
            saved_metrics, saved_tracer = self.metrics, self.tracer
            self.metrics, self.tracer = MetricsRegistry(), NULL_TRACER
            try:
                for ev in events:
                    kind = ev[0]
                    if kind == "order":
                        self.placement_plan()
                    elif kind == "success":
                        self.observe_success(ev[1], ev[2])
                    elif kind == "vote":
                        # A redundant voting replica is a real, clean
                        # launch: its sample scores the device exactly
                        # like a primary success.
                        self.observe_success(ev[1], ev[2])
                    elif kind == "fault":
                        self.observe_fault(
                            ev[1], ev[2] if len(ev) > 2 else None
                        )
            finally:
                self.metrics, self.tracer = saved_metrics, saved_tracer


class ResilientWorker:
    """Wraps an offloaded filter worker with retry, breaker, and host
    fallback.

    Args:
        name: the task's diagnostic name.
        device_worker: the :class:`repro.backend.glue.CompiledFilter`.
        host_factory: zero-argument callable building the host
            interpreter worker on first use (``Engine._host_worker``).
        retry: a :class:`RetryPolicy`.
        breaker: this task's :class:`CircuitBreaker`.
        profile: the run's :class:`ExecutionProfile` (recovery stage +
            failure ledger).
        validate_every: differential-validation sampling period — every
            Nth stream item that completed on the device is re-executed
            through the host interpreter and compared NaN-safely; a
            mismatch is a ``validate`` fault (the kernel is silently
            wrong), trips the breaker, and the item returns the host
            result. 0 disables sampling.
    """

    def __init__(
        self,
        name,
        device_worker,
        host_factory,
        retry,
        breaker,
        profile,
        validate_every=0,
    ):
        self.name = name
        self.device_worker = device_worker
        self._host_factory = host_factory
        self._host_worker = None
        self.retry = retry
        self.breaker = breaker
        self.profile = profile
        self.validate_every = int(validate_every or 0)
        self.device_items = 0  # device completions, for the sampler

    @property
    def demoted(self):
        return self.breaker.open

    # -- journal support -----------------------------------------------------

    def snapshot_state(self):
        """Post-item state the recovery journal persists so a resumed
        run restarts with the breaker and validation sampler exactly
        where they were."""
        return {
            "breaker": {
                "state": self.breaker.state,
                "consecutive": self.breaker.consecutive,
                "host_successes": self.breaker.host_successes,
            },
            "device_items": self.device_items,
        }

    def restore_state(self, state):
        breaker = state.get("breaker", {})
        self.breaker.state = breaker.get("state", self.breaker.state)
        self.breaker.consecutive = breaker.get(
            "consecutive", self.breaker.consecutive
        )
        self.breaker.host_successes = breaker.get(
            "host_successes", self.breaker.host_successes
        )
        self.device_items = state.get("device_items", self.device_items)

    def _host(self, value):
        if self._host_worker is None:
            self._host_worker = self._host_factory()
        # A device-resident input (--fuse) crossing into the host
        # interpreter — breaker-open demotion, retries-exhausted
        # fallback, or differential validation — forces the producer's
        # deferred d2h bill to be paid first (idempotent: settles once).
        from repro.runtime import marshal

        marshal.settle_resident(value, self.profile, reason="host_fallback")
        return self._host_worker(value)

    def _charge(self, lost_ns):
        ledger = self.profile.faults
        ledger.add_time_lost(self.name, lost_ns)
        self.profile.record_recovery(self.name, lost_ns)

    def _record_fault(self, err, stage):
        ledger = self.profile.faults
        ledger.record_fault(self.name, stage)
        if isinstance(err, SanitizerFault):
            ledger.record_trip(self.name, stage, getattr(err, "trips", 1))

    def _validate(self, value, result, probing):
        """Sampled differential validation of a device result; returns
        ``(trusted_result, ok)``."""
        self.device_items += 1
        if (
            self.validate_every <= 0
            or (self.device_items - 1) % self.validate_every
        ):
            return result, True
        ledger = self.profile.faults
        tracer = self.profile.tracer
        with tracer.span("validate", cat="recovery", task=self.name):
            expected = self._host(value)
            ok = values_equal(result, expected)
        if ok:
            ledger.record_validation(self.name, ok=True)
            return result, True
        # The device answer is silently wrong: ledger the divergence,
        # trip the breaker, and return the trusted host result.
        ledger.record_validation(self.name, ok=False)
        tracer.instant("validation_mismatch", cat="recovery", task=self.name)
        err = ValidationFault(
            "task '{}': device result diverged from the host interpreter "
            "on a sampled stream item".format(self.name)
        )
        self._record_fault(err, ValidationFault.stage)
        if self.breaker.record_fault() and not probing:
            ledger.record_demotion(self.name)
            tracer.instant("demotion", cat="recovery", task=self.name)
        return expected, False

    def __call__(self, value=None):
        ledger = self.profile.faults
        tracer = self.profile.tracer
        if self.breaker.open:
            result = self._host(value)
            self.breaker.record_host_success()
            return result
        probing = self.breaker.half_open
        attempt = 0
        while True:
            try:
                result = self.device_worker(value)
            except RuntimeFault as err:
                # ControlFlowSignal (UnderflowException) is deliberately
                # not a RuntimeFault: stream termination passes through.
                stage = getattr(err, "stage", None) or "device"
                partial = getattr(err, "partial_stages", None)
                self._record_fault(err, stage)
                tracer.instant(
                    "fault",
                    cat="recovery",
                    task=self.name,
                    stage=stage,
                    attempt=attempt,
                )
                # The failed attempt's stage time already advanced the
                # trace clock inside the glue's "item" span; only the
                # backoff wait below adds new simulated time here.
                self._charge(partial.total() if partial is not None else 0.0)
                if self.breaker.record_fault():
                    if not probing:
                        ledger.record_demotion(self.name)
                        tracer.instant(
                            "demotion", cat="recovery", task=self.name
                        )
                    return self._host(value)
                if attempt < self.retry.max_retries:
                    backoff_ns = self.retry.backoff_ns(attempt)
                    self._charge(backoff_ns)
                    tracer.charge(
                        "retry_backoff",
                        backoff_ns,
                        cat="recovery",
                        task=self.name,
                        attempt=attempt,
                    )
                    ledger.record_retry(self.name)
                    attempt += 1
                    continue
                # Retries exhausted: run this item on the host, keep the
                # device in play for the next item (the breaker decides
                # when to give up on it entirely).
                ledger.record_fallback(self.name)
                tracer.instant("host_fallback", cat="recovery", task=self.name)
                return self._host(value)
            else:
                # Validate before crediting the breaker: a device answer
                # that diverges from the host is a fault, not a success,
                # and must not reset the consecutive-fault streak.
                result, ok = self._validate(value, result, probing)
                if ok:
                    self.breaker.record_success()
                    if probing:
                        # Half-open probe succeeded: the task is
                        # re-promoted from the host back to the device.
                        ledger.record_promotion(self.name)
                        tracer.instant(
                            "promotion", cat="recovery", task=self.name
                        )
                return result


class ResiliencePolicy:
    """The engine-facing bundle: one injector (optional) plus the retry
    and breaker configuration applied to every offloaded filter.

    ``Engine(checked, offloader=..., resilience=ResiliencePolicy(...))``
    wraps each compiled filter in a :class:`ResilientWorker` with its
    own circuit breaker. Passing ``injector=None`` enables recovery
    machinery without injection — real (non-injected) device faults are
    retried and demoted the same way.
    """

    def __init__(
        self,
        injector=None,
        retry=None,
        breaker_threshold=3,
        validate_every=0,
        cooloff=None,
    ):
        self.injector = injector
        self.retry = retry or RetryPolicy()
        self.breaker_threshold = breaker_threshold
        self.validate_every = int(validate_every or 0)
        self.cooloff = cooloff

    @classmethod
    def from_flags(
        cls,
        fault_rate=0.0,
        seed=0,
        retry=None,
        breaker_threshold=3,
        validate_every=0,
        cooloff=None,
        silent_rate=0.0,
        sanitize=False,
        kill_devices=None,
        oom_bytes=0,
        slow_devices=None,
        slow_ramp=0,
        jitter=0.0,
    ):
        """Build from the CLI's resilience flags (``--faults``,
        ``--fault-seed``, ``--silent-faults``, ``--validate-every``,
        ``--breaker-cooloff``, ``--sanitize``, ``--kill-device``,
        ``--oom-bytes``, ``--slow-device``, ``--slow-ramp``,
        ``--latency-jitter``); returns None when every knob is off —
        the seed-identical fast path. ``sanitize`` alone enables the
        policy (without injection) so sanitizer trips are retried/
        demoted instead of crashing the run. ``kill_devices`` maps a
        fleet device key to the launch count after which it dies;
        ``oom_bytes`` is the deterministic per-allocation device memory
        ceiling (0 = unlimited). ``slow_devices`` maps a device key to
        its ``(factor, after)`` straggler spec (every launch from
        number ``after`` on takes ``factor`` × its modeled time,
        ramping in over ``slow_ramp`` launches); ``jitter`` adds up to
        that fraction of deterministic per-device launch-time noise
        fleet-wide."""
        kill_devices = dict(kill_devices or {})
        slow_devices = dict(slow_devices or {})
        injects = (
            fault_rate > 0.0
            or silent_rate > 0.0
            or kill_devices
            or oom_bytes > 0
            or slow_devices
            or jitter > 0.0
        )
        if not injects and validate_every <= 0 and not sanitize:
            return None
        injector = None
        if injects:
            spec = FaultSpec(
                transfer=fault_rate,
                launch=fault_rate,
                oom=fault_rate,
                silent=silent_rate,
                seed=seed,
                oom_bytes=int(oom_bytes or 0),
                jitter=float(jitter or 0.0),
            )
            device_specs = {
                key: replace(
                    spec,
                    slow=float(factor),
                    slow_after=int(after),
                    slow_ramp=int(slow_ramp or 0),
                )
                for key, (factor, after) in slow_devices.items()
            }
            injector = FaultInjector(
                spec, device_specs=device_specs, kill_after=kill_devices
            )
        return cls(
            injector=injector,
            retry=retry,
            breaker_threshold=breaker_threshold,
            validate_every=validate_every,
            cooloff=cooloff,
        )

    def describe(self):
        """The policy's configuration as JSON-able data — fault specs,
        kill switches, retry, breaker and validation settings, not the
        injector's draw state. The journal's run key hashes it, whether
        the policy came from flags or was passed in as an object."""
        injected = None
        if self.injector is not None:
            injected = {
                "spec": asdict(self.injector.spec),
                "device_specs": {
                    key: asdict(spec)
                    for key, spec in self.injector.device_specs.items()
                },
                "kill_after": dict(self.injector.kill_after),
            }
        return {
            "injector": injected,
            "retry": asdict(self.retry),
            "breaker_threshold": self.breaker_threshold,
            "validate_every": self.validate_every,
            "cooloff": self.cooloff,
        }

    def wrap(self, name, device_worker, host_factory, profile):
        if self.injector is not None and hasattr(device_worker, "injector"):
            device_worker.injector = self.injector
        # Share the retry policy with the glue's partitioned-relaunch
        # path so chunk retries follow the same backoff schedule.
        if hasattr(device_worker, "retry") and device_worker.retry is None:
            device_worker.retry = self.retry
        worker = ResilientWorker(
            name=name,
            device_worker=device_worker,
            host_factory=host_factory,
            retry=self.retry,
            breaker=CircuitBreaker(self.breaker_threshold, cooloff=self.cooloff),
            profile=profile,
            validate_every=self.validate_every,
        )
        return worker
