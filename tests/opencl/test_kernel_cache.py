"""The content-addressed kernel-compilation cache.

The key is the kernel IR's fingerprint alone (plus the artifact format
version): compiler options, the device and the sanitizer reach codegen
only through the IR or not at all. These tests pin the behaviours that
sharing one artifact must keep — a guarded launch from a warm entry
still runs the sanitized tier and still traps, an option toggle that
changes the IR still misses, and a fleet compiles each distinct IR
once. ``test_kernel_cache_key.py`` derives the key's completeness.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.registry import ALL_BENCHMARKS
from repro.backend import kernel_ir as K
from repro.compiler.options import OptimizationConfig
from repro.errors import BoundsFault
from repro.evaluation.harness import run_configuration
from repro.opencl.executor import codegen_compiles
from repro.opencl.kernel_cache import (
    KernelCache,
    global_kernel_cache,
    kernel_fingerprint,
    reset_global_cache,
)
from repro.runtime.sanitizer import LaunchGuard, SanitizerConfig

I32 = K.KScalar("int")


def make_kernel(name="k", const=1):
    out = K.KParam("out", I32, K.Space.GLOBAL, is_pointer=True)
    gid = K.KCall("get_global_id", [K.KConst(0, I32)], I32)
    return K.Kernel(
        name=name,
        params=[out],
        arrays=[],
        body=[
            K.KDecl("i", I32, gid),
            K.KStore(
                "out",
                K.KVar("i", I32),
                K.KBin("+", K.KVar("i", I32), K.KConst(const, I32), I32),
                K.Space.GLOBAL,
                I32,
            ),
        ],
        meta={},
    )


class TestFingerprint:
    def test_deterministic(self):
        assert kernel_fingerprint(make_kernel()) == kernel_fingerprint(
            make_kernel()
        )

    def test_body_change_changes_fingerprint(self):
        assert kernel_fingerprint(make_kernel(const=1)) != kernel_fingerprint(
            make_kernel(const=2)
        )

    def test_name_change_changes_fingerprint(self):
        assert kernel_fingerprint(make_kernel("a")) != kernel_fingerprint(
            make_kernel("b")
        )

    def test_meta_and_sites_excluded(self):
        plain = make_kernel()
        decorated = make_kernel()
        decorated.meta["source_param"] = "xs"
        K.assign_sites(decorated)
        assert kernel_fingerprint(plain) == kernel_fingerprint(decorated)


def oob_kernel():
    """``make_kernel`` with its store shifted 100 elements past the end."""
    kernel = make_kernel("oob")
    store = kernel.body[-1]
    store.index = K.KBin("+", store.index, K.KConst(100, I32), I32)
    return kernel


class TestCacheBehavior:
    def test_second_compile_is_a_hit_without_codegen(self):
        cache = KernelCache()
        first, kind1 = cache.lookup(make_kernel())
        before = codegen_compiles()
        second, kind2 = cache.lookup(make_kernel())
        assert (kind1, kind2) == ("miss", "hit")
        assert second is first
        # The acceptance check: a cache hit runs no codegen at all.
        assert codegen_compiles() == before

    def test_warm_entry_still_traps_an_out_of_bounds_store(self):
        # The entry is compiled with no sanitizer in sight; a guarded
        # launch from it builds the sanitized variant from the same IR.
        cache = KernelCache()
        cache.lookup(oob_kernel())
        entry, kind = cache.lookup(oob_kernel())
        assert kind == "hit"
        guard = LaunchGuard(SanitizerConfig(), "oob")
        with pytest.raises(BoundsFault):
            entry.launch({"out": np.zeros(8, dtype=np.int32)}, {}, 8, 8,
                         guard=guard)
        assert guard.trips == {"bounds": 1}

    def test_lru_eviction_is_bounded(self):
        cache = KernelCache(capacity=4)
        for i in range(10):
            cache.lookup(make_kernel(const=i))
        assert len(cache) == 4
        assert cache.stats()["evictions"] == 6
        # Most-recent entries survive; the oldest were evicted.
        _, kind = cache.lookup(make_kernel(const=9))
        assert kind == "hit"
        _, kind = cache.lookup(make_kernel(const=0))
        assert kind == "miss"


def run_small(name, **fields):
    return run_configuration(
        ALL_BENCHMARKS[name], "gtx580", scale=0.1, steps=1,
        max_sim_items=64, **fields
    )


class TestEndToEnd:
    def test_second_run_hits_the_cache(self):
        reset_global_cache()
        first = run_small("jg-series-single")
        assert first.executor["cache.misses"] >= 1
        assert first.executor["cache.hits"] == 0
        before = codegen_compiles()
        second = run_small("jg-series-single")
        assert second.executor["cache.misses"] == 0
        assert second.executor["cache.hits"] >= 1
        # No codegen ran for the per-item artifact on the warm run.
        assert codegen_compiles() == before

    def test_guarded_run_after_warm_run_hits_and_runs_sanitized(self):
        # The artifact an unguarded run compiled serves a guarded run:
        # the launch's guard, not the cache entry, picks the tier.
        reset_global_cache()
        run_small("jg-series-single")
        guarded = run_small("jg-series-single", sanitizer=SanitizerConfig())
        assert guarded.executor["cache.misses"] == 0
        assert guarded.executor["cache.hits"] >= 1
        assert guarded.executor["executor.launches"].get("sanitized", 0) > 0

    def test_option_toggle_that_changes_the_ir_misses(self):
        reset_global_cache()
        run_small("mosaic")
        untiled = run_small(
            "mosaic", config=replace(OptimizationConfig(), use_local=False)
        )
        assert untiled.executor["cache.misses"] == 1

    def test_option_toggle_that_keeps_the_ir_hits_without_codegen(self):
        # vectorize=False lowers jg-series to the same IR, so the
        # toggled run is served the artifact the first run compiled.
        reset_global_cache()
        run_small("jg-series-single")
        before = codegen_compiles()
        toggled = run_small(
            "jg-series-single",
            config=replace(OptimizationConfig(), vectorize=False),
        )
        assert toggled.executor["cache.misses"] == 0
        assert toggled.executor["cache.hits"] >= 1
        assert codegen_compiles() == before

    @pytest.mark.parametrize(
        "name, distinct_irs",
        [("mosaic", 2), ("parboil-cp", 2), ("pipeline3", 3),
         ("jg-series-single", 1)],
    )
    def test_fleet_holds_one_entry_per_distinct_ir(self, name, distinct_irs):
        reset_global_cache()
        result = run_small(
            name, devices=["gtx580", "hd5970", "gtx8800", "core-i7"]
        )
        assert len(global_kernel_cache()) == distinct_irs
        assert result.executor["cache.misses"] == distinct_irs
