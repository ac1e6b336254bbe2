"""Reference site aggregation for the timing model's equivalence tests.

This is the aggregation ``repro.opencl.timing`` used before it moved to
packed integer sorts, kept verbatim as the oracle that
``test_timing_equivalence.py`` and ``benchmarks/perf/test_timing_model.py``
hold :func:`repro.opencl.timing.analyze_site` to: one ``np.unique``
over the event keys, structured ``(key, value)`` arrays for the pair
counts, and one Python loop iteration per event for strict (pre-Fermi)
coalescing. Every :class:`SiteStats` field must match it exactly.
"""

import numpy as np

from repro.backend.kernel_ir import Space
from repro.opencl.timing import SiteStats


def _event_keys(lanes, local_size, warp_width):
    """Group events into 'simultaneous' sets.

    Events of one site are recorded in per-item execution order; the
    k-th access a lane makes at a site lines up with the k-th access of
    every other lane (lockstep SIMT execution of uniform control flow).
    The simultaneous-event key is (group, warp, sequence#).
    """
    order = np.argsort(lanes, kind="stable")
    sorted_lanes = lanes[order]
    # Rank within each lane: position - first index of that lane value.
    change = np.empty(len(sorted_lanes), dtype=bool)
    if len(sorted_lanes):
        change[0] = True
        change[1:] = sorted_lanes[1:] != sorted_lanes[:-1]
    starts = np.flatnonzero(change)
    group_sizes = np.diff(np.append(starts, len(sorted_lanes)))
    offsets = np.repeat(starts, group_sizes)
    seq_sorted = np.arange(len(sorted_lanes)) - offsets
    seq = np.empty(len(lanes), dtype=np.int64)
    seq[order] = seq_sorted
    groups = lanes // local_size
    warps = (lanes % local_size) // warp_width
    # Composite key, dense enough for np.unique.
    return (groups.astype(np.int64) << 40) | (warps.astype(np.int64) << 28) | seq


def _count_distinct_pairs(keys, values):
    """Number of distinct (key, value) pairs."""
    if len(keys) == 0:
        return 0
    pairs = np.empty(len(keys), dtype=[("k", np.int64), ("v", np.int64)])
    pairs["k"] = keys
    pairs["v"] = values
    return len(np.unique(pairs))


def _max_per_key_bucket(keys, buckets):
    """For each key, the maximum multiplicity of any bucket value;
    returns the sum over keys (serialized cycles)."""
    if len(keys) == 0:
        return 0
    pairs = np.empty(len(keys), dtype=[("k", np.int64), ("b", np.int64)])
    pairs["k"] = keys
    pairs["b"] = buckets
    uniq, counts = np.unique(pairs, return_counts=True)
    # counts are multiplicities per (key, bucket); take max per key.
    keys_only = uniq["k"]
    order = np.argsort(keys_only, kind="stable")
    keys_sorted = keys_only[order]
    counts_sorted = counts[order]
    change = np.empty(len(keys_sorted), dtype=bool)
    change[0] = True
    change[1:] = keys_sorted[1:] != keys_sorted[:-1]
    starts = np.flatnonzero(change)
    maxima = np.maximum.reduceat(counts_sorted, starts)
    return int(maxima.sum())


def _strict_coalescing_transactions(keys, byte_addr, segment_bytes, access_bytes):
    """Transactions under pre-Fermi coalescing rules.

    Per simultaneous event: lanes hitting distinct, densely packed
    addresses (a contiguous run, lane k at base + k*width) coalesce into
    the segments the run spans; any other shape — a broadcast, a large
    stride, a scatter — issues one transaction per lane, which is the
    paper's up-to-10x global penalty on the GTX8800.
    """
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    addr_sorted = byte_addr[order]
    change = np.empty(len(keys_sorted), dtype=bool)
    change[0] = True
    change[1:] = keys_sorted[1:] != keys_sorted[:-1]
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], len(keys_sorted))
    total = 0
    for start, end in zip(starts, ends):
        window = addr_sorted[start:end]
        lanes = end - start
        lo = int(window.min())
        hi = int(window.max())
        distinct = len(np.unique(window))
        dense = distinct == lanes and (hi - lo) == (lanes - 1) * access_bytes
        if lanes == 1 or dense:
            total += (hi + access_bytes - 1) // segment_bytes - lo // segment_bytes + 1
        else:
            total += lanes
    return total


def _distinct_per_key_total(keys, values):
    """Sum over keys of the number of distinct values — the serialization
    cost of constant-memory events."""
    return _count_distinct_pairs(keys, values)


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
    keys = _event_keys(lanes, local_size, warp)
    stats.events = len(np.unique(keys))
    byte_addr = indices * (trace_site.elem_bytes * trace_site.width)
    if trace_site.space in (Space.GLOBAL, Space.IMAGE):
        seg_lo = byte_addr // device.transaction_bytes
        seg_hi = (
            byte_addr + trace_site.elem_bytes * trace_site.width - 1
        ) // device.transaction_bytes
        spans = int((seg_hi != seg_lo).sum())
        if not device.strict_coalescing or trace_site.space is Space.IMAGE:
            # Relaxed path: an event costs its distinct segments.
            transactions = _count_distinct_pairs(keys, seg_lo)
        else:
            # Strict pre-Fermi coalescing: an event is coalesced only
            # when its lanes hit distinct, densely packed addresses
            # within one segment-aligned window; anything else — a
            # broadcast, a stride, a scatter — serializes into one
            # transaction per lane (the paper's up-to-10x global
            # penalty on the GTX8800).
            transactions = _strict_coalescing_transactions(
                keys,
                byte_addr,
                device.transaction_bytes,
                trace_site.elem_bytes * trace_site.width,
            )
        stats.transactions = transactions + spans
        # Unique segments per work-group: what a group-resident cache
        # must fetch from DRAM.
        groups = lanes // local_size
        stats.unique_transactions = _count_distinct_pairs(groups, seg_lo) + spans
    elif trace_site.space is Space.LOCAL:
        words = byte_addr // 4
        banks = words % device.local_memory_banks
        # Broadcast detection: an event where every lane reads the same
        # word costs one cycle; otherwise the max-per-bank multiplicity.
        distinct_words = _distinct_per_key_total(keys, words)
        max_bank = _max_per_key_bucket(keys, banks)
        if distinct_words == stats.events:
            # Every event touched a single word: pure broadcast.
            stats.conflict_cycles = stats.events
        else:
            stats.conflict_cycles = max_bank
    elif trace_site.space is Space.CONSTANT:
        words = byte_addr // 4
        stats.serial_words = _distinct_per_key_total(keys, words)
    return stats
