"""The device timing model.

Converts a :class:`repro.opencl.executor.LaunchTrace` into simulated
kernel nanoseconds for a given :class:`DeviceModel`. The model is
deliberately analytic (deterministic, additive) but captures every
first-order effect the paper's evaluation turns on:

- **coalescing** — global accesses are grouped into *simultaneous
  events*: accesses by the lanes of one warp at the same per-lane
  sequence position of one site. Each event costs as many memory
  transactions as distinct ``transaction_bytes``-sized segments it
  touches. Strided per-thread access (e.g. spilled private arrays)
  explodes into one transaction per lane; unit-stride access coalesces.
- **bank conflicts** — local-memory events cost the maximum number of
  lanes hitting any single bank (a broadcast of one word costs one
  cycle), so padding visibly pays off.
- **constant memory** — an event costs the number of *distinct* words
  read (1 for a broadcast, serialized otherwise).
- **caches (Fermi / CPU)** — on devices with an L1, repeated addresses
  within a work-group hit cache: only unique segments pay bandwidth,
  the rest are charged a per-access cache cycle. This is what makes the
  GTX580 insensitive to memory placement (Figure 8(b)).
- **double precision / transcendentals** — per-device throughput ratios
  (Section 5.1's 2-3x double slowdown; OpenCL's native transcendentals).

The roofline combination ``max(compute, memory) + launch overhead``
keeps the model monotone and explainable; the tests in
``tests/opencl/test_timing.py`` pin each effect individually.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backend.kernel_ir import Space


@dataclass
class SiteStats:
    """Aggregated behavior of one access site under a given device."""

    space: Space
    accesses: int
    bytes_moved: int
    is_store: bool
    transactions: int = 0  # global/image: coalesced memory transactions
    unique_transactions: int = 0  # distinct segments per work-group (cache)
    conflict_cycles: int = 0  # local: serialized cycles across events
    serial_words: int = 0  # constant: distinct words summed over events
    events: int = 0  # simultaneous access events


@dataclass
class KernelTiming:
    """The timing verdict for one launch."""

    kernel_ns: float
    compute_ns: float
    memory_ns: float
    launch_overhead_ns: float
    op_cycles: dict
    site_stats: dict = field(default_factory=dict)

    def describe(self):
        return {
            "kernel_ns": self.kernel_ns,
            "compute_ns": self.compute_ns,
            "memory_ns": self.memory_ns,
            "ops": dict(self.op_cycles),
        }


def _run_starts(column):
    """Mask of the positions of a sorted, non-empty column that start a
    run of equal values."""
    starts = np.empty(len(column), dtype=bool)
    starts[0] = True
    np.not_equal(column[1:], column[:-1], out=starts[1:])
    return starts


def _event_ranks(lanes, local_size, warp_width):
    """Group accesses into 'simultaneous' events: each access's dense
    event rank, and the number of events.

    Events of one site are recorded in per-item execution order; the
    k-th access a lane makes at a site lines up with the k-th access of
    every other lane (lockstep SIMT execution of uniform control flow).
    An event is one (group, warp, sequence#) triple.
    """
    n = len(lanes)
    order = np.argsort(lanes, kind="stable")
    sorted_lanes = lanes[order]
    # Sequence number: position within the lane's run of accesses.
    starts = np.flatnonzero(_run_starts(sorted_lanes))
    seq = np.arange(n) - np.repeat(starts, np.diff(starts, append=n))
    # In lane order each warp of each group is one run, whose events
    # are its sequence numbers 0 .. max: number them warp after warp.
    warps = np.flatnonzero(
        _run_starts(sorted_lanes // local_size)
        | _run_starts(sorted_lanes % local_size // warp_width)
    )
    sizes = np.maximum.reduceat(seq, warps) + 1
    first_rank = np.repeat(np.cumsum(sizes) - sizes, np.diff(warps, append=n))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = first_rank + seq
    return ranks, int(sizes.sum())


def _sorted_pairs(keys, values):
    """(key, value) pairs sorted by key, then value, and the mask of the
    positions that start a distinct pair.

    Sorts one int64 array of min-shifted pairs packed into a word when
    the key span times the value span fits in 62 bits (checked in
    Python ints, so no two pairs can pack alike); lexsorts otherwise.
    """
    kmin, vmin = int(keys.min()), int(values.min())
    span = int(values.max()) - vmin + 1
    if (int(keys.max()) - kmin + 1) * span <= 1 << 62:
        packed = np.sort((keys - kmin) * span + (values - vmin))
        k = packed // span
        return k + kmin, packed - k * span + vmin, _run_starts(packed)
    order = np.lexsort((values, keys))
    k, v = keys[order], values[order]
    return k, v, _run_starts(k) | _run_starts(v)


def _count_distinct_pairs(keys, values):
    """Number of distinct (key, value) pairs."""
    return int(np.count_nonzero(_sorted_pairs(keys, values)[2]))


def _max_per_key_bucket(keys, buckets):
    """For each key, the maximum multiplicity of any bucket value;
    returns the sum over keys (serialized cycles)."""
    k, _, first = _sorted_pairs(keys, buckets)
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(k))
    maxima = np.maximum.reduceat(counts, np.flatnonzero(_run_starts(k[starts])))
    return int(maxima.sum())


def _strict_coalescing_transactions(keys, byte_addr, segment_bytes, access_bytes):
    """Transactions under pre-Fermi coalescing rules.

    Per simultaneous event: lanes hitting distinct, densely packed
    addresses (a contiguous run, lane k at base + k*width) coalesce into
    the segments the run spans; any other shape — a broadcast, a large
    stride, a scatter — issues one transaction per lane, which is the
    paper's up-to-10x global penalty on the GTX8800.
    """
    k, addr, first = _sorted_pairs(keys, byte_addr)
    starts = np.flatnonzero(_run_starts(k))
    lanes = np.diff(starts, append=len(k))
    lo = addr[starts]
    hi = addr[starts + lanes - 1]
    distinct = np.add.reduceat(first, starts, dtype=np.int64)
    # A lone lane is dense too.
    dense = (distinct == lanes) & (hi - lo == (lanes - 1) * access_bytes)
    spanned = (hi + access_bytes - 1) // segment_bytes - lo // segment_bytes + 1
    return int(np.where(dense, spanned, lanes).sum())


def analyze_site(trace_site, device, local_size):
    """Aggregate one :class:`SiteTrace` into :class:`SiteStats`."""
    lanes, indices = trace_site.arrays()
    stats = SiteStats(
        space=trace_site.space,
        accesses=trace_site.accesses,
        bytes_moved=trace_site.bytes_moved,
        is_store=trace_site.is_store,
    )
    if len(lanes) == 0:
        return stats
    warp = max(1, device.warp_width)
    ranks, stats.events = _event_ranks(lanes, local_size, warp)
    access_bytes = trace_site.elem_bytes * trace_site.width
    byte_addr = indices * access_bytes
    if trace_site.space in (Space.GLOBAL, Space.IMAGE):
        seg_lo = byte_addr // device.transaction_bytes
        seg_hi = (byte_addr + access_bytes - 1) // device.transaction_bytes
        spans = int((seg_hi != seg_lo).sum())
        if not device.strict_coalescing or trace_site.space is Space.IMAGE:
            # Relaxed path: an event costs its distinct segments.
            transactions = _count_distinct_pairs(ranks, seg_lo)
        else:
            # Strict pre-Fermi coalescing: an event is coalesced only
            # when its lanes hit distinct, densely packed addresses
            # within one segment-aligned window; anything else — a
            # broadcast, a stride, a scatter — serializes into one
            # transaction per lane (the paper's up-to-10x global
            # penalty on the GTX8800).
            transactions = _strict_coalescing_transactions(
                ranks, byte_addr, device.transaction_bytes, access_bytes
            )
        stats.transactions = transactions + spans
        # Unique segments per work-group: what a group-resident cache
        # must fetch from DRAM.
        groups = lanes // local_size
        stats.unique_transactions = _count_distinct_pairs(groups, seg_lo) + spans
    elif trace_site.space is Space.LOCAL:
        words = byte_addr // 4
        # Broadcast detection: an event where every lane reads the same
        # word costs one cycle; otherwise the max-per-bank multiplicity.
        if _count_distinct_pairs(ranks, words) == stats.events:
            # Every event touched a single word: pure broadcast.
            stats.conflict_cycles = stats.events
        else:
            stats.conflict_cycles = _max_per_key_bucket(
                ranks, words % device.local_memory_banks
            )
    elif trace_site.space is Space.CONSTANT:
        # Constant events serialize over their distinct words.
        stats.serial_words = _count_distinct_pairs(ranks, byte_addr // 4)
    return stats


# Per-op cycle weights, shared across devices; device ratios are applied
# on top (dp ratio, transcendental cycles).
_BASE_CYCLES = {"int": 1.0, "long": 2.0, "fp": 1.0, "cmp": 1.0, "branch": 1.0}


def time_launch(trace, device):
    """Compute the simulated time of one kernel launch on ``device``."""
    local_size = max(1, trace.local_size)
    site_stats = {
        site: analyze_site(tr, device, local_size)
        for site, tr in trace.sites.items()
    }

    ops = trace.op_cycles
    cycles = 0.0
    for kind, weight in _BASE_CYCLES.items():
        cycles += ops.get(kind, 0) * weight
    cycles += ops.get("dp", 0) * device.dp_throughput_ratio
    cycles += ops.get("trans_f", 0) * device.transcendental_cycles
    cycles += (
        ops.get("trans_d", 0)
        * device.transcendental_cycles
        * device.dp_throughput_ratio
    )

    # On-chip memory joins the compute pipeline.
    dram_bytes = 0.0
    cache_hit_bytes = 0.0
    for stats in site_stats.values():
        if stats.space is Space.LOCAL:
            cycles += stats.conflict_cycles * local_size_weight(device)
        elif stats.space is Space.CONSTANT:
            cycles += stats.serial_words * local_size_weight(device)
        elif stats.space is Space.IMAGE:
            # Texture path: cached and vectorized; charge a fixed 2
            # cycles per event plus the DRAM traffic of unique segments.
            cycles += stats.events * 2 * local_size_weight(device)
            dram_bytes += stats.unique_transactions * device.transaction_bytes
        elif stats.space is Space.GLOBAL:
            if device.has_l1_cache:
                unique_bytes = stats.unique_transactions * device.transaction_bytes
                total_bytes = stats.transactions * device.transaction_bytes
                dram_bytes += unique_bytes
                cache_hit_bytes += max(0.0, total_bytes - unique_bytes)
            else:
                dram_bytes += stats.transactions * device.transaction_bytes

    total_lanes = device.compute_units * device.fp_units_per_unit
    effective_rate = (
        total_lanes * device.clock_ghz * device.compute_efficiency
    )  # ops per ns
    compute_ns = cycles / effective_rate if effective_rate else 0.0

    # Cache hits are serviced at the cache's rate across compute units.
    if cache_hit_bytes:
        cache_rate = (
            device.compute_units
            * device.cache_bytes_per_cycle
            * device.clock_ghz
        )  # bytes per ns
        compute_ns += cache_hit_bytes / cache_rate

    bandwidth = device.global_bandwidth_gbps * device.bandwidth_efficiency  # B/ns
    memory_ns = dram_bytes / bandwidth if bandwidth else 0.0
    # Uncovered latency: one burst per wave of work-groups.
    waves = max(1.0, trace.work_groups / device.compute_units)
    memory_ns += device.global_latency_ns * waves if dram_bytes else 0.0

    kernel_ns = max(compute_ns, memory_ns) + device.launch_overhead_ns
    return KernelTiming(
        kernel_ns=kernel_ns,
        compute_ns=compute_ns,
        memory_ns=memory_ns,
        launch_overhead_ns=device.launch_overhead_ns,
        op_cycles=dict(ops),
        site_stats=site_stats,
    )


def local_size_weight(device):
    """Cost, in pipeline cycles per lane-event, of an on-chip access.

    On-chip accesses are charged like ALU ops; the warp serialization is
    already reflected in the conflict counts, so the per-event weight is
    the warp width (one cycle per lane at full throughput equals one
    warp-cycle per event)."""
    return float(device.warp_width)
