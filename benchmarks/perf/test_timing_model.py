"""Timing-model micro-benchmark: site aggregation vs its reference.

The device timing model turns every access site a launch records into
:class:`SiteStats` (coalesced transactions, bank-conflict cycles,
serialized constant words). ``analyze_site`` does it with a few plain
int64 sorts per site; ``tests/opencl/timing_reference.py`` keeps the
aggregation it replaced (structured-array ``np.unique`` sorts and one
Python iteration per event under strict coalescing). Two synthetic
sites shaped like the hottest ones the tiled apps record:

- ``local_broadcast``: 262,144 LOCAL accesses, 16 work-groups of 128
  lanes reading the same 128 words in lockstep (a tile read), on the
  GTX 580;
- ``strided_global``: 131,072 GLOBAL accesses, 1,024 lanes each walking
  its own 128-element row, on the GTX 8800, whose strict coalescing
  serializes every event.

Each site is aggregated by both in the same process, alternating, best
of ``ROUNDS``. The stats must be equal and ``analyze_site`` at least
``MIN_SPEEDUP`` times faster. Writes
``benchmarks/results/BENCH_timing.json``.
"""

import time

import numpy as np
from conftest import record_result

from repro.backend.kernel_ir import Space
from repro.opencl.device import GTX580, GTX8800
from repro.opencl.executor import SiteTrace
from repro.opencl.timing import analyze_site
from tests.opencl import timing_reference

LOCAL_SIZE = 128
ROUNDS = 3
MIN_SPEEDUP = 5.0


def local_broadcast():
    site = SiteTrace(Space.LOCAL, 4, 1, is_store=False)
    lanes = np.arange(16 * LOCAL_SIZE, dtype=np.int64)
    words = np.arange(128, dtype=np.int64)
    site.append_block(np.repeat(lanes, len(words)), np.tile(words, len(lanes)))
    return site


def strided_global():
    site = SiteTrace(Space.GLOBAL, 4, 1, is_store=False)
    lanes = np.arange(1024, dtype=np.int64)
    row = np.arange(128, dtype=np.int64)
    site.append_block(
        np.repeat(lanes, len(row)), (lanes[:, None] * len(row) + row).ravel()
    )
    return site


SITES = {
    "local_broadcast": (local_broadcast, GTX580),
    "strided_global": (strided_global, GTX8800),
}


def _timed(aggregate, site, device):
    start = time.perf_counter()
    stats = aggregate(site, device, LOCAL_SIZE)
    return time.perf_counter() - start, vars(stats)


def test_timing_model_speedup():
    results = {}
    for name, (make, device) in SITES.items():
        site = make()
        reference_s = analyze_s = float("inf")
        for _ in range(ROUNDS):
            elapsed, want = _timed(timing_reference.analyze_site, site, device)
            reference_s = min(reference_s, elapsed)
            elapsed, got = _timed(analyze_site, site, device)
            analyze_s = min(analyze_s, elapsed)
            assert got == want, (name, got, want)
        results[name] = {
            "accesses": site.accesses,
            "device": device.name,
            "reference_s": reference_s,
            "analyze_site_s": analyze_s,
            "speedup": reference_s / analyze_s,
        }
        print(
            "{}: {} accesses, reference {:.1f} ms, analyze_site {:.1f} ms, "
            "{:.1f}x".format(
                name,
                site.accesses,
                reference_s * 1e3,
                analyze_s * 1e3,
                reference_s / analyze_s,
            )
        )
    record_result(
        "BENCH_timing",
        {"local_size": LOCAL_SIZE, "rounds": ROUNDS, "sites": results},
    )
    for name, entry in results.items():
        assert entry["speedup"] >= MIN_SPEEDUP, (
            "analyze_site only {:.1f}x faster than the reference on {} "
            "(gate {}x)".format(entry["speedup"], name, MIN_SPEEDUP)
        )
