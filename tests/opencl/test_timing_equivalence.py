"""The timing model's site aggregation equals its reference, field for field.

``analyze_site`` aggregates a site with a few plain int64 sorts: one
stable sort by lane gives every access its event rank, and each pair
count sorts one packed (rank, value) word per access, with a lexsort
when a pack would not fit in 62 bits. The reference
(``timing_reference.py``) is the aggregation it replaced. Every :class:`SiteStats` field must match on generated
sites — all spaces, device models, local sizes, element sizes and
vector widths, per-item and batch-block traces — and on every site the
apps' own launches record.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import ALL_BENCHMARKS
from repro.backend.kernel_ir import Space
from repro.evaluation.harness import run_configuration
from repro.opencl.device import DEVICES
from repro.opencl.executor import SiteTrace
from repro.opencl.timing import analyze_site
from tests.opencl import timing_reference

SPACES = [Space.GLOBAL, Space.IMAGE, Space.LOCAL, Space.CONSTANT, Space.PRIVATE]
LOCAL_SIZES = [1, 16, 32, 64, 128, 256]
# Index magnitudes: small buffers, large ones, and addresses far enough
# apart that a (key, address) pair no longer packs into 62 bits.
INDEX_BOUNDS = [64, 4096, 2 ** 40, 2 ** 56]
# Per-lane index strides: broadcast, unit, padded, bank-conflicting,
# reversed.
STRIDES = [0, 1, 2, 16, 17, -1]


def assert_same_stats(site, device, local_size):
    got = vars(analyze_site(site, device, local_size))
    want = vars(timing_reference.analyze_site(site, device, local_size))
    assert got == want, (device.name, local_size, site.space)
    for name, value in got.items():
        if name not in ("space", "is_store"):
            assert type(value) is int, (name, type(value))


@st.composite
def sites(draw):
    site = SiteTrace(
        draw(st.sampled_from(SPACES)),
        draw(st.sampled_from([1, 4, 8])),
        draw(st.sampled_from([1, 2, 4])),
        is_store=draw(st.booleans()),
    )
    bound = draw(st.sampled_from(INDEX_BOUNDS))
    index = st.integers(-bound, bound)
    stride = st.sampled_from(STRIDES)
    # Per-item accesses, one block as a per-item launch records them:
    # each lane's k-th visit at base_k + stride*lane, plus arbitrary
    # (lane, index) pairs.
    first = draw(st.integers(0, 300))
    lanes = range(first, first + draw(st.integers(0, 48)))
    step = draw(stride)
    pairs = [
        (lane, base + step * lane)
        for base in draw(st.lists(index, max_size=3))
        for lane in lanes
    ]
    pairs += draw(st.lists(st.tuples(st.integers(0, 600), index), max_size=40))
    if pairs:
        pairs = np.array(pairs, dtype=np.int64)
        site.append_block(pairs[:, 0], pairs[:, 1])
    # Batch blocks: one per loop iteration over a lane range, indexed
    # affinely, by an arbitrary array, or by one broadcast scalar.
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, 400))
        count = draw(st.integers(1, 96))
        block = np.arange(start, start + count, dtype=np.int64)
        shape = draw(st.sampled_from(["affine", "array", "scalar"]))
        if shape == "affine":
            site.append_block(block, draw(index) + draw(stride) * block)
        elif shape == "array":
            values = draw(st.lists(index, min_size=count, max_size=count))
            site.append_block(block, np.array(values, dtype=np.int64))
        else:
            site.append_block(block, draw(index), count)
    return site


@given(sites(), st.sampled_from(LOCAL_SIZES))
@settings(max_examples=200, deadline=None)
def test_generated_sites_match_reference(site, local_size):
    for device in DEVICES.values():
        assert_same_stats(site, device, local_size)


# Hand-picked sites random generation rarely reaches: each row is one
# visit of lanes 0 .. len(row)-1 to the indices listed.
EDGE_SITES = {
    # Two lanes share a word yet the three span a dense window: strict
    # coalescing must still serialize the event.
    "duplicate-in-dense-window": [[0, 0, 2], [5, 6, 7]],
    # Three events over addresses +-2**61: the (rank, address) pack
    # needs 64 bits, past the 62 the packed sort allows.
    "pack-over-62-bits": [
        [sign * 2 ** 59 + lane for lane in range(8)] for sign in (-1, 1, -1)
    ],
}


@pytest.mark.parametrize("rows", list(EDGE_SITES.values()), ids=list(EDGE_SITES))
@pytest.mark.parametrize("space", SPACES)
def test_edge_sites_match_reference(rows, space):
    site = SiteTrace(space, 4, 1, is_store=False)
    for row in rows:
        site.append_block(
            np.arange(len(row), dtype=np.int64), np.array(row, dtype=np.int64)
        )
    for device in DEVICES.values():
        for local_size in (1, 32):
            assert_same_stats(site, device, local_size)


def test_lexsort_fallback_matches_reference(monkeypatch):
    """Addresses 2**60 bytes apart cannot pack with any event rank: the
    pair sorts fall back to a lexsort, and the stats still match."""
    calls = []
    lexsort = np.lexsort

    def counting(keys):
        calls.append(len(keys[0]))
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", counting)
    lanes = np.arange(256, dtype=np.int64)
    for space in SPACES[:4]:
        site = SiteTrace(space, 4, 1, is_store=False)
        for base in (0, 2 ** 58, -(2 ** 58), 7):
            site.append_block(lanes, base + lanes * (lanes % 3))
        for device in DEVICES.values():
            assert_same_stats(site, device, 64)
    assert calls, "no pair sort took the lexsort fallback"


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
def test_app_sites_match_reference(name, captured_traces):
    run_configuration(
        ALL_BENCHMARKS[name], "gtx580", scale=0.05, steps=1, max_sim_items=64
    )
    sites = [
        (site, trace.local_size)
        for trace in captured_traces
        for site in trace.sites.values()
    ]
    assert sites, "{} recorded no access site".format(name)
    for site, local_size in sites:
        for device in DEVICES.values():
            assert_same_stats(site, device, max(1, local_size))
