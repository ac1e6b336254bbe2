"""Timing-model tests: each modeled effect pinned individually."""

import numpy as np
import pytest

from repro.backend.kernel_ir import Space
from repro.opencl.device import CORE_I7, GTX580, GTX8800, HD5970
from repro.opencl.executor import LaunchTrace, SiteTrace
from repro.opencl.timing import analyze_site, time_launch


def make_site(space, accesses, elem_bytes=4, width=1, is_store=False):
    site = SiteTrace(space, elem_bytes, width, is_store)
    pairs = np.array(list(accesses), dtype=np.int64).reshape(-1, 2)
    site.append_block(pairs[:, 0], pairs[:, 1])
    return site


def test_coalesced_dense_access_on_strict_device():
    # 32 lanes, one float each, consecutive: dense -> few transactions.
    site = make_site(Space.GLOBAL, [(lane, lane) for lane in range(32)])
    stats = analyze_site(site, GTX8800, local_size=32)
    # 32 floats = 128 bytes = 2 x 64B segments.
    assert stats.transactions == 2


def test_broadcast_serializes_on_strict_device():
    site = make_site(Space.GLOBAL, [(lane, 7) for lane in range(32)])
    stats = analyze_site(site, GTX8800, local_size=32)
    assert stats.transactions == 32  # one per lane: the 10x penalty


def test_broadcast_cheap_on_cached_device():
    site = make_site(Space.GLOBAL, [(lane, 7) for lane in range(32)])
    stats = analyze_site(site, GTX580, local_size=32)
    assert stats.transactions == 1


def test_strided_access_serializes_on_strict_device():
    site = make_site(Space.GLOBAL, [(lane, lane * 64) for lane in range(32)])
    stats = analyze_site(site, GTX8800, local_size=32)
    assert stats.transactions == 32


def test_local_broadcast_costs_one_cycle_per_event():
    site = make_site(Space.LOCAL, [(lane, 5) for lane in range(32)])
    stats = analyze_site(site, GTX8800, local_size=32)
    assert stats.conflict_cycles == 1


def test_local_bank_conflicts_detected():
    # Stride 16 on 16 banks: every lane hits bank 0.
    site = make_site(Space.LOCAL, [(lane, lane * 16) for lane in range(16)])
    stats = analyze_site(site, GTX8800, local_size=32)
    assert stats.conflict_cycles == 16


def test_local_padding_removes_conflicts():
    # Stride 17 on 16 banks: all lanes hit distinct banks.
    site = make_site(Space.LOCAL, [(lane, lane * 17) for lane in range(16)])
    stats = analyze_site(site, GTX8800, local_size=32)
    assert stats.conflict_cycles == 1


def test_constant_broadcast_is_one_word():
    site = make_site(Space.CONSTANT, [(lane, 3) for lane in range(32)])
    stats = analyze_site(site, GTX8800, local_size=32)
    assert stats.serial_words == 1


def test_constant_divergent_reads_serialize():
    site = make_site(Space.CONSTANT, [(lane, lane) for lane in range(32)])
    stats = analyze_site(site, GTX8800, local_size=32)
    assert stats.serial_words == 32


def test_sequence_numbers_group_separate_iterations():
    # Each lane accesses twice: iteration 0 at its own index (dense),
    # iteration 1 all at index 0 (broadcast). Two events.
    accesses = [(lane, lane) for lane in range(16)] + [(lane, 0) for lane in range(16)]
    site = make_site(Space.GLOBAL, accesses)
    stats = analyze_site(site, GTX8800, local_size=16)
    assert stats.events == 2
    assert stats.transactions == 1 + 16


def make_trace(op_cycles=None, sites=None, global_size=64, local_size=64):
    trace = LaunchTrace("k", global_size, local_size)
    if op_cycles:
        trace.op_cycles.update(op_cycles)
    trace.sites = sites or {}
    return trace


def test_compute_bound_kernel_time():
    trace = make_trace({"fp": 1_000_000})
    timing = time_launch(trace, GTX580)
    assert timing.compute_ns > 0
    assert timing.kernel_ns == pytest.approx(
        timing.compute_ns + GTX580.launch_overhead_ns
    )


def test_double_precision_ratio():
    single = time_launch(make_trace({"fp": 10 ** 6}), GTX580).compute_ns
    double = time_launch(make_trace({"dp": 10 ** 6}), GTX580).compute_ns
    assert double / single == pytest.approx(GTX580.dp_throughput_ratio)


def test_double_penalty_larger_on_gtx580_than_hd5970():
    """Paper: doubles 2-3x slower on GTX580, ~1.5x on HD5970."""
    assert GTX580.dp_throughput_ratio > HD5970.dp_throughput_ratio


def test_transcendentals_cheap_on_gpu():
    fp = time_launch(make_trace({"fp": 10 ** 6}), GTX580).compute_ns
    trans = time_launch(make_trace({"trans_f": 10 ** 6}), GTX580).compute_ns
    assert trans == pytest.approx(fp * GTX580.transcendental_cycles)


def test_memory_bound_kernel_uses_roofline():
    site = make_site(
        Space.GLOBAL, [(lane, lane * 1000) for lane in range(64)]
    )
    trace = make_trace({"fp": 10}, {0: site})
    timing = time_launch(trace, GTX8800)
    assert timing.memory_ns > timing.compute_ns
    assert timing.kernel_ns == pytest.approx(
        timing.memory_ns + GTX8800.launch_overhead_ns
    )


def test_launch_overhead_always_charged():
    timing = time_launch(make_trace(), GTX580)
    assert timing.kernel_ns == GTX580.launch_overhead_ns


def test_cpu_device_slower_per_lane_than_gpu():
    trace = make_trace({"fp": 10 ** 6})
    cpu = time_launch(trace, CORE_I7).compute_ns
    gpu = time_launch(trace, GTX580).compute_ns
    assert cpu > gpu


def test_core_scaling_is_linear_in_model():
    trace = make_trace({"fp": 10 ** 6})
    one = time_launch(trace, CORE_I7.with_cores(1)).compute_ns
    six = time_launch(trace, CORE_I7.with_cores(6)).compute_ns
    assert one / six == pytest.approx(6.0)
