"""Launch reuse: a launch that repeats an earlier launch's inputs copies
that launch's results instead of running.

A kernel launch is a pure function of the kernel, its tier, its launch
shape and its buffers' contents. :class:`CompiledKernel` keeps, per
(tier, shape), a digest of the last reusable launch's buffers and
copies of the buffers it stored to; an unguarded launch given its
device model whose digest matches, and whose timing the memo holds,
copies them out and runs no item or batch code.

Four groups of checks:

- a hit writes what a fresh traced launch of the same inputs writes,
  bit for bit, over the golden OpenCL-C kernels;
- every way two launches can differ misses and executes: one byte,
  ``0.0`` against ``-0.0``, two NaN payloads, ``1`` against ``True``,
  the local size, ``index_base``, the tier, a device not timed yet;
- guarded launches and launches without a model never reuse, and a
  fault draw comes before the lookup;
- the memo's bound and lifetime, reuse by a disk-loaded kernel
  without codegen, the digest in the timing key, the ``reused`` arg of
  the ``device`` span, and threads sharing one kernel, as serving
  sessions do.
"""

import pickle
import sys
import threading

import numpy as np
import pytest

import repro.opencl.timing as timing
from repro.errors import LaunchFault
from repro.opencl.clc import compile_opencl_source
from repro.opencl.device import DEVICES, GTX580
from repro.opencl.executor import CompiledKernel, codegen_compiles
from repro.opencl.kernel_cache import cached_compile_kernel, reset_global_cache
from repro.opencl.timing import time_launch
from repro.runtime.resilience import FaultInjector, FaultSpec
from repro.runtime.sanitizer import LaunchGuard, SanitizerConfig
from repro.runtime.tracing import Tracer
from tests.opencl.launchutil import (
    AXPB,
    GATHER,
    GLOBAL_SIZE,
    GOLDEN_SOURCES,
    LOCAL_SIZE,
    kernel,
    random_args,
)


def copies(buffers):
    return {name: buf.copy() for name, buf in buffers.items()}


def assert_same_buffers(got, want):
    assert got.keys() == want.keys()
    for name, buf in want.items():
        assert got[name].tobytes() == buf.tobytes(), name


# -- a hit writes what a fresh launch writes ---------------------------------------


@pytest.mark.parametrize("path", GOLDEN_SOURCES, ids=[p.stem for p in GOLDEN_SOURCES])
def test_hit_writes_what_a_fresh_traced_launch_writes(path):
    for ir in compile_opencl_source(path.read_text()).values():
        compiled = CompiledKernel(ir)
        inputs, scalars = random_args(ir, 1)
        first = copies(inputs)
        timed = time_launch(
            compiled.launch(first, scalars, GLOBAL_SIZE, LOCAL_SIZE, model=GTX580),
            GTX580,
        )
        hit_buffers = copies(inputs)
        hit = compiled.launch(
            hit_buffers, scalars, GLOBAL_SIZE, LOCAL_SIZE, model=GTX580
        )
        assert hit.reused and hit.timing is timed and hit.model is GTX580
        assert hit.sites == {} and hit.total_ops() == 0
        assert hit.tier == ("batch" if compiled.batch_supported else "per-item")
        assert time_launch(hit, GTX580) is timed
        # A fresh kernel, traced, on the same inputs.
        fresh_buffers = copies(inputs)
        fresh = CompiledKernel(ir).launch(
            fresh_buffers, scalars, GLOBAL_SIZE, LOCAL_SIZE
        )
        assert fresh.timing is None and not fresh.reused
        assert_same_buffers(hit_buffers, fresh_buffers)
        assert_same_buffers(hit_buffers, first)


# -- every difference misses ---------------------------------------------------------


def _nan(payload):
    return np.array([payload], dtype=np.uint32).view(np.float32)[0]


def base_launch():
    """AXPB's base arguments: x holds a 0.0 and a NaN of one payload."""
    x = np.ones(32, dtype=np.float32)
    x[3] = 0.0
    x[4] = _nan(0x7FC00000)
    buffers = {"y": np.zeros(32, dtype=np.float32), "x": x}
    return dict(
        buffers=buffers,
        scalars={"a": 2.0, "b": 1},
        global_size=16,
        local_size=8,
        options=dict(model=GTX580),
    )


def flip_byte(args):
    args["buffers"]["x"].view(np.uint8)[9] ^= 1


def negative_zero(args):
    args["buffers"]["x"][3] = -0.0


def other_nan(args):
    args["buffers"]["x"][4] = _nan(0x7FC00001)


def true_for_one(args):
    args["scalars"]["b"] = True


def other_local_size(args):
    args["local_size"] = 4


def index_base(args):
    args["options"]["index_base"] = 8


def explicit_tier(args):
    args["options"]["tier"] = "per-item"


def untimed_device(args):
    args["options"]["model"] = DEVICES["gtx8800"]


DIFFERENCES = [
    flip_byte,
    negative_zero,
    other_nan,
    true_for_one,
    other_local_size,
    index_base,
    explicit_tier,
    untimed_device,
]


def run(compiled, args, **extra):
    options = dict(args["options"], **extra)
    return compiled.launch(
        args["buffers"],
        args["scalars"],
        args["global_size"],
        args["local_size"],
        **options,
    )


@pytest.mark.parametrize("change", DIFFERENCES, ids=[f.__name__ for f in DIFFERENCES])
def test_every_difference_misses_and_executes(change):
    compiled = CompiledKernel(kernel(AXPB))
    time_launch(run(compiled, base_launch()), GTX580)
    # Not vacuous: the same contents in new arrays reuse.
    assert run(compiled, base_launch()).reused
    args = base_launch()
    change(args)
    want = {name: buf.copy() for name, buf in args["buffers"].items()}
    fresh = dict(args, buffers=want)
    run(CompiledKernel(kernel(AXPB)), fresh, model=None)
    trace = run(compiled, args)
    assert not trace.reused and trace.timing is None
    assert trace.sites.keys() == compiled.site_meta.keys()
    assert_same_buffers(args["buffers"], want)


# -- what never reuses -----------------------------------------------------------------


def test_guarded_and_modelless_launches_always_execute():
    compiled = CompiledKernel(kernel(AXPB))
    time_launch(run(compiled, base_launch()), GTX580)
    # x holds a NaN on purpose, which the guard would trap as stored.
    guard = LaunchGuard(SanitizerConfig(nan_poison=False), compiled.kernel.name)
    guarded = run(compiled, base_launch(), guard=guard)
    assert guarded.tier == "sanitized" and not guarded.reused
    assert guarded.sites.keys() == compiled.site_meta.keys()
    modelless = run(compiled, base_launch(), model=None)
    assert modelless.tier == "batch" and not modelless.reused
    assert modelless.timing is None and modelless.sites
    # Neither replaced the slot: the next identical launch reuses.
    assert run(compiled, base_launch()).reused


def test_fault_draw_comes_before_the_lookup():
    compiled = CompiledKernel(kernel(AXPB))
    time_launch(run(compiled, base_launch()), GTX580)
    injector = FaultInjector(FaultSpec(launch=1.0, seed=3))
    with pytest.raises(LaunchFault):
        run(compiled, base_launch(), injector=injector)
    assert injector.injected["launch"] == 1


def test_failed_launch_stores_nothing():
    compiled = CompiledKernel(kernel(AXPB))
    args = base_launch()
    args["buffers"]["x"] = np.ones(4, dtype=np.float32)  # too short
    with pytest.raises(Exception, match="out-of-bounds"):
        run(compiled, args)
    assert compiled.results == {}


def test_caller_changes_after_a_launch_do_not_reach_the_stored_copy():
    # The glue corrupts an output silently after the launch returns.
    compiled = CompiledKernel(kernel(AXPB))
    args = base_launch()
    time_launch(run(compiled, args), GTX580)
    want = args["buffers"]["y"].copy()
    args["buffers"]["y"][:] = 99.0
    again = base_launch()
    assert run(compiled, again).reused
    assert again["buffers"]["y"].tobytes() == want.tobytes()


# -- bound, lifetime, the timing key, the span -----------------------------------------


def test_full_memo_is_emptied(monkeypatch):
    monkeypatch.setattr(timing, "MEMO_CAPACITY", 2)
    compiled = CompiledKernel(kernel(AXPB))

    def launched(b):
        args = base_launch()
        args["scalars"]["b"] = b
        trace = run(compiled, args)
        time_launch(trace, GTX580)
        return trace.reused, len(compiled.results)

    assert [launched(b) for b in (1, 2, 3)] == [(False, 1), (False, 2), (False, 1)]
    # The third shape stays; the first went with the full memo.
    assert launched(3) == (True, 1)
    assert launched(1) == (False, 2)


def test_memo_is_absent_from_the_artifact_and_a_reset_cache():
    ir = kernel(AXPB)
    compiled = cached_compile_kernel(ir)
    time_launch(run(compiled, base_launch()), GTX580)
    assert len(compiled.results) == 1
    art = compiled.artifact()
    assert "results" not in art
    restored = CompiledKernel.from_artifact(pickle.loads(pickle.dumps(art)))
    assert len(restored.results) == 0
    reset_global_cache()
    assert len(cached_compile_kernel(kernel(AXPB)).results) == 0


# Local memory and a barrier: no batch source, so it runs per-item.
BARRIER_REVERSE = """
__kernel void k(__global float* y, __global const float* x, float a, int b) {
    __local float tile[8];
    int lid = get_local_id(0);
    int i = get_global_id(0);
    tile[lid] = x[i];
    barrier(CLK_LOCAL_MEM_FENCE);
    y[i] = a * tile[7 - lid] + (float)b;
}
"""


@pytest.mark.parametrize(
    "source, tier", [(AXPB, "batch"), (BARRIER_REVERSE, "per-item")]
)
def test_disk_loaded_kernel_reuses_without_codegen(source, tier):
    art = CompiledKernel(kernel(source)).artifact()
    before = codegen_compiles()
    restored = CompiledKernel.from_artifact(pickle.loads(pickle.dumps(art)))
    first = base_launch()
    trace = run(restored, first)
    assert trace.tier == tier and not trace.reused
    timed = time_launch(trace, GTX580)
    again = base_launch()
    hit = run(restored, again)
    assert hit.reused and hit.tier == tier and hit.timing is timed
    assert_same_buffers(again["buffers"], first["buffers"])
    assert codegen_compiles() == before


def test_gather_kernel_times_each_content_once(monkeypatch):
    analysed = []
    real = timing.analyze_launch

    def counting(trace, device):
        analysed.append(trace)
        return real(trace, device)

    monkeypatch.setattr(timing, "analyze_launch", counting)
    compiled = CompiledKernel(kernel(GATHER))

    def launched(first_index):
        idx = np.arange(16, dtype=np.int32)
        idx[0] = first_index
        buffers = {
            "y": np.zeros(16, dtype=np.float32),
            "idx": idx,
            "x": np.arange(16, dtype=np.float32),
        }
        trace = compiled.launch(buffers, {}, 16, 8, model=GTX580)
        time_launch(trace, GTX580)
        return trace

    first, second, third = launched(0), launched(5), launched(0)
    # The digest is part of the timing key, so the contents are too.
    assert first.shape[:-1] == second.shape[:-1] and first.shape != second.shape
    assert third.shape == first.shape
    # The slot holds the second contents, so the third executes; the
    # memo still holds the first contents' timing.
    assert not third.reused and third.sites
    assert len(analysed) == 2
    assert launched(0).reused


def test_reused_launch_runs_in_a_device_span():
    compiled = CompiledKernel(kernel(AXPB))
    time_launch(run(compiled, base_launch()), GTX580)
    tracer = Tracer()
    assert run(compiled, base_launch(), tracer=tracer).reused
    (span,) = [e for e in tracer.events if e.name == "device"]
    assert span.args["reused"] is True
    assert span.args["tier"] == "batch" and span.args["kernel"] == "k"
    run(compiled, base_launch(), tracer=tracer, model=None)
    assert "reused" not in tracer.events[-1].args


def test_concurrent_launches_of_a_shared_kernel_stay_exact():
    # Serving sessions share compiled kernels, and the memo has no
    # lock: a slot read while another thread replaces it must still
    # pair each digest with its own outputs.
    compiled = CompiledKernel(kernel(AXPB))
    fills = [1.0, 2.0, -0.0, 3.0]
    want = {}
    for fill in fills:
        args = base_launch()
        args["buffers"]["x"][:] = fill
        run(CompiledKernel(kernel(AXPB)), args, model=None)
        want[fill] = args["buffers"]["y"].tobytes()
    errors = []

    def worker(offset):
        try:
            for n in range(60):
                fill = fills[(n + offset) % len(fills)]
                args = base_launch()
                args["buffers"]["x"][:] = fill
                time_launch(run(compiled, args), GTX580)
                if args["buffers"]["y"].tobytes() != want[fill]:
                    errors.append((offset, n, fill))
        except Exception as err:  # reported below, with the thread's input
            errors.append((offset, repr(err)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
