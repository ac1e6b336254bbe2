"""Property-based tests for the timing model's invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.kernel_ir import Space
from repro.opencl.device import GTX580, GTX8800
from repro.opencl.executor import LaunchTrace, SiteTrace
from repro.opencl.timing import analyze_site, time_launch


def make_site(space, accesses, elem_bytes=4, width=1):
    site = SiteTrace(space, elem_bytes, width, is_store=False)
    pairs = np.array(list(accesses), dtype=np.int64).reshape(-1, 2)
    site.append_block(pairs[:, 0], pairs[:, 1])
    return site


@given(
    st.lists(
        st.tuples(st.integers(0, 31), st.integers(0, 255)),
        min_size=1,
        max_size=120,
    )
)
@settings(max_examples=60, deadline=None)
def test_event_grouping_is_order_insensitive_per_lane_history(accesses):
    """Shuffling whole-lane histories does not change the aggregate
    (events are keyed by per-lane sequence, not arrival order)."""
    site_a = make_site(Space.GLOBAL, accesses)
    stats_a = analyze_site(site_a, GTX8800, local_size=32)
    # Reorder by stable-sorting on lane: preserves each lane's sequence.
    reordered = sorted(accesses, key=lambda pair: pair[0])
    site_b = make_site(Space.GLOBAL, reordered)
    stats_b = analyze_site(site_b, GTX8800, local_size=32)
    assert stats_a.transactions == stats_b.transactions
    assert stats_a.events == stats_b.events


@given(
    st.lists(
        st.tuples(st.integers(0, 31), st.integers(0, 1023)),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=60, deadline=None)
def test_strict_coalescing_never_cheaper_than_relaxed(accesses):
    site = make_site(Space.GLOBAL, accesses)
    strict = analyze_site(site, GTX8800, local_size=32)
    # Same trace under the cached device: relaxed counting.
    site2 = make_site(Space.GLOBAL, accesses)
    relaxed = analyze_site(site2, GTX580, local_size=32)
    # Segment sizes differ (64 vs 128B), so compare per-device lower
    # bounds instead: strict >= its own distinct-segment count is the
    # invariant worth holding.
    site3 = make_site(Space.GLOBAL, accesses)
    from dataclasses import replace

    relaxed_same_seg = analyze_site(
        site3, replace(GTX8800, strict_coalescing=False), local_size=32
    )
    assert strict.transactions >= relaxed_same_seg.transactions


@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 255)),
        min_size=1,
        max_size=80,
    )
)
@settings(max_examples=60, deadline=None)
def test_local_conflicts_bounded_by_lanes(accesses):
    site = make_site(Space.LOCAL, accesses)
    stats = analyze_site(site, GTX8800, local_size=16)
    assert stats.conflict_cycles >= stats.events
    assert stats.conflict_cycles <= len(accesses)


@given(st.integers(1, 10 ** 7), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_kernel_time_monotone_in_ops(fp_ops, extra):
    a = LaunchTrace("k", 64, 64)
    a.op_cycles["fp"] = fp_ops
    b = LaunchTrace("k", 64, 64)
    b.op_cycles["fp"] = fp_ops + extra
    ta = time_launch(a, GTX580).kernel_ns
    tb = time_launch(b, GTX580).kernel_ns
    assert tb >= ta


def test_timing_deterministic():
    accesses = [(lane, lane * 3 % 64) for lane in range(32)] * 4
    runs = []
    for _ in range(3):
        trace = LaunchTrace("k", 32, 32)
        trace.op_cycles["fp"] = 1234
        trace.sites = {0: make_site(Space.GLOBAL, accesses)}
        runs.append(time_launch(trace, GTX8800).kernel_ns)
    assert runs[0] == runs[1] == runs[2]
