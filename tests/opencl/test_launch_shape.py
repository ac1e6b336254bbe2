"""The timing memo: each launch's shape and contents are timed once
per device.

Every launch's trace carries its launch shape (global size, local
size, ``index_base`` and the scalar arguments) plus a digest of its
buffers' contents, and the trace is a function of the two.
:func:`repro.opencl.timing.time_launch` times each such key once per
device and answers every later launch of it from the kernel's timing
memo.

Four groups of checks:

- the key has no tier: per-item, sanitized and batch launches of one
  content time alike on every device, over the ten apps' kernels and
  the golden OpenCL-C snapshots;
- the memo itself: every hit equals a fresh analysis over the ten apps
  on all four devices, the key is exact and holds the contents of
  guarded launches and launches without a device model too, the bound,
  the lifetime, the number of fresh analyses, and straggler latency
  that never leaks into the shared timing;
- the key holds the contents, written per kernel
  (:func:`assert_each_content_timed_once`) so that any kernel source
  can feed it: two contents at one shape are timed apart, once each
  per device, and a repeat of either is answered by its own timing,
  over one small kernel per way memory moves a trace, RPES's table
  gather, the ten apps' kernels and the golden snapshots;
- around launch reuse (``tests/opencl/test_launch_reuse.py``): a batch
  launch of new contents at a timed shape records a full trace, and a
  reused launch's timing answers for its device model alone.
"""

import collections
import pickle

import numpy as np
import pytest

import repro.backend.glue as glue
import repro.opencl.timing as timing
from repro.apps.registry import ALL_BENCHMARKS
from repro.evaluation.harness import run_configuration
from repro.opencl.clc import compile_opencl_source
from repro.opencl.device import DEVICES, GTX580
from repro.opencl.executor import CompiledKernel
from repro.opencl.kernel_cache import cached_compile_kernel, reset_global_cache
from repro.opencl.timing import analyze_launch, time_launch
from repro.runtime.resilience import FaultInjector, FaultSpec
from repro.runtime.sanitizer import LaunchGuard, SanitizerConfig
from tests.opencl.launchutil import (
    AXPB,
    GATHER,
    GLOBAL_SIZE,
    GOLDEN_SOURCES,
    LOCAL_SIZE,
    kernel,
    random_args,
)
from tests.opencl.test_kernel_cache_key import CONFIGS, compile_app
from tests.runtime.test_latency_faults import frozen, saxpy_filter

# Small end-to-end runs: every app at its default steps.
SCALE = 0.05
MAX_SIM_ITEMS = 256


# -- the key has no tier -----------------------------------------------------------


def assert_same_timing(got, want):
    assert vars(got) == vars(want)
    for site, stats in want.site_stats.items():
        assert vars(got.site_stats[site]) == vars(stats), site


def assert_tiers_time_alike(compiled):
    """The memo key has no tier: per-item, sanitized and batch launches
    of one content must time alike on every device."""
    buffers, scalars = random_args(compiled.kernel, 1)

    def launch(tier, guard=None):
        copies = {name: buf.copy() for name, buf in buffers.items()}
        return compiled.launch(
            copies, scalars, GLOBAL_SIZE, LOCAL_SIZE, tier=tier, guard=guard
        )

    traces = [
        launch("per-item"),
        launch("per-item", LaunchGuard(SanitizerConfig(), compiled.kernel.name)),
    ]
    if compiled.batch_supported:
        traces.append(launch("batch"))
    assert traces[1].tier == "sanitized"
    assert len({trace.shape for trace in traces}) == 1
    for device in DEVICES.values():
        want = analyze_launch(traces[0], device)
        for trace in traces[1:]:
            assert_same_timing(analyze_launch(trace, device), want)


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
@pytest.mark.parametrize("config", ["default", "nolocal"])
def test_app_kernel_tiers_time_alike(config, name):
    kernels = compile_app(name, device=GTX580, config=CONFIGS[config])
    assert kernels
    for _ir, compiled in kernels:
        assert_tiers_time_alike(compiled)


@pytest.mark.parametrize("path", GOLDEN_SOURCES, ids=[p.stem for p in GOLDEN_SOURCES])
def test_golden_kernel_tiers_time_alike(path):
    for ir in compile_opencl_source(path.read_text()).values():
        assert_tiers_time_alike(CompiledKernel(ir))


# -- the memo ----------------------------------------------------------------------


@pytest.fixture
def fresh_analyses(monkeypatch):
    """The traces :func:`time_launch` analysed instead of answering from
    a memo, in order."""
    analysed = []
    real = timing.analyze_launch

    def counting(trace, device):
        analysed.append(trace)
        return real(trace, device)

    monkeypatch.setattr(timing, "analyze_launch", counting)
    return analysed


# One harness target per device model.
DEVICE_TARGETS = ["cpu-6", "gtx580", "gtx8800", "hd5970"]


@pytest.mark.parametrize("target", DEVICE_TARGETS)
def test_every_memo_hit_equals_a_fresh_analysis(target, fresh_analyses, monkeypatch):
    """A reused hit ran nothing, so it is launched again, traced, on
    copies of its inputs, and that trace is analysed."""
    real = glue.time_launch
    real_launch = CompiledKernel.launch
    hits = []

    def recording(self, buffers, scalars, global_size, local_size, **kwargs):
        inputs = ({n: b.copy() for n, b in buffers.items()}, dict(scalars))
        trace = real_launch(self, buffers, scalars, global_size, local_size, **kwargs)
        trace.relaunch = lambda: real_launch(
            self,
            *inputs,
            global_size,
            local_size,
            tier=kwargs.get("tier", "auto"),
            index_base=kwargs.get("index_base", 0),
        )
        return trace

    def rechecking(trace, device_model):
        before = len(fresh_analyses)
        got = real(trace, device_model)
        if len(fresh_analyses) == before:
            hits.append(trace)
            if trace.timing is not None:
                assert trace.sites == {}
                trace = trace.relaunch()
            assert_same_timing(got, analyze_launch(trace, device_model))
        return got

    monkeypatch.setattr(CompiledKernel, "launch", recording)
    monkeypatch.setattr(glue, "time_launch", rechecking)
    reset_global_cache()
    for name in sorted(ALL_BENCHMARKS):
        before = len(hits)
        run_configuration(
            ALL_BENCHMARKS[name], target, scale=SCALE, max_sim_items=MAX_SIM_ITEMS
        )
        # Not vacuous: every app repeats a launch's shape and contents.
        assert len(hits) > before, name
    # Some repeats were reused and ran no code.
    assert any(trace.timing is not None for trace in hits)


@pytest.mark.parametrize(
    "name, kernels", [("parboil-cp", 1), ("pipeline3", 3)]
)
def test_one_fresh_analysis_per_kernel(name, kernels, fresh_analyses, captured_traces):
    reset_global_cache()
    run_configuration(
        ALL_BENCHMARKS[name], "gtx580", scale=SCALE, max_sim_items=MAX_SIM_ITEMS
    )
    launched = collections.Counter(t.kernel_name for t in captured_traces)
    analysed = collections.Counter(t.kernel_name for t in fresh_analyses)
    assert len(launched) == kernels
    assert all(count > 1 for count in launched.values())
    assert analysed == dict.fromkeys(launched, 1)


def test_shape_key_holds_scalar_types_and_bits(fresh_analyses):
    compiled = CompiledKernel(kernel(AXPB))
    x = np.ones(64, dtype=np.float32)

    def timed(a, b, index_base=0):
        y = np.zeros(64, dtype=np.float32)
        trace = compiled.launch(
            {"y": y, "x": x}, {"a": a, "b": b}, 16, 8, index_base=index_base
        )
        return trace.shape, time_launch(trace, GTX580)

    shapes = [
        timed(0.0, 1)[0],
        timed(-0.0, 1)[0],
        timed(0.0, True)[0],
        timed(0.0, 1, index_base=8)[0],
    ]
    assert len(set(shapes)) == 4
    assert len(fresh_analyses) == 4
    assert len(compiled.timings) == 4
    # A repeat of the first shape is answered by the first timing.
    shape, repeat = timed(0.0, 1)
    assert len(fresh_analyses) == 4
    assert shape == shapes[0]
    assert repeat is compiled.timings.get((shape, GTX580))


def test_guarded_and_modelless_launches_key_their_contents(fresh_analyses):
    """Every launch's key holds its contents: the gather kernel,
    launched guarded and without a device model on one content, is
    analysed once per (contents, device), and new contents again."""
    compiled = CompiledKernel(kernel(GATHER))

    def launched(first_index, guarded):
        idx = np.arange(16, dtype=np.int32)
        idx[0] = first_index
        buffers = {
            "y": np.zeros(16, dtype=np.float32),
            "idx": idx,
            "x": np.arange(16, dtype=np.float32),
        }
        guard = LaunchGuard(SanitizerConfig(), "k") if guarded else None
        return compiled.launch(buffers, {}, 16, 8, guard=guard)

    traces = [launched(0, guarded) for guarded in (True, False) for _ in range(3)]
    assert traces[0].tier == "sanitized"
    for trace in traces:
        assert trace.sites and not trace.reused
        for device in (GTX580, DEVICES["gtx8800"]):
            time_launch(trace, device)
    assert len(fresh_analyses) == 2
    other = launched(5, guarded=False)
    assert other.shape[:-1] == traces[0].shape[:-1] and other.shape != traces[0].shape
    time_launch(other, GTX580)
    assert len(fresh_analyses) == 3
    assert len(compiled.timings) == 3


def test_full_memo_is_emptied(fresh_analyses, monkeypatch):
    monkeypatch.setattr(timing, "MEMO_CAPACITY", 2)
    compiled = CompiledKernel(kernel(AXPB))
    x = np.ones(16, dtype=np.float32)

    def timed(b):
        y = np.zeros(16, dtype=np.float32)
        trace = compiled.launch({"y": y, "x": x}, {"a": 2.0, "b": b}, 16, 8)
        time_launch(trace, GTX580)
        return len(compiled.timings)

    assert [timed(b) for b in (1, 2, 3)] == [1, 2, 1]
    assert len(fresh_analyses) == 3
    # The third shape stays; the first two went with the full memo.
    assert [timed(b) for b in (3, 1)] == [1, 2]
    assert len(fresh_analyses) == 4


def test_memo_lives_and_dies_with_its_compiled_kernel():
    ir = kernel(AXPB)
    compiled = cached_compile_kernel(ir)
    y, x = np.zeros(16, dtype=np.float32), np.ones(16, dtype=np.float32)
    trace = compiled.launch({"y": y, "x": x}, {"a": 2.0, "b": 1}, 16, 8)
    time_launch(trace, GTX580)
    assert len(compiled.timings) == 1
    # Not part of the on-disk artifact: a restored kernel starts cold.
    art = compiled.artifact()
    assert b"KernelTiming" not in pickle.dumps(art)
    assert len(CompiledKernel.from_artifact(art).timings) == 0
    # Nor does it survive the kernel cache.
    reset_global_cache()
    assert len(cached_compile_kernel(kernel(AXPB)).timings) == 0


def test_straggler_latency_stays_out_of_the_shared_timing(monkeypatch):
    spec = FaultSpec(seed=5, slow=4.0, jitter=0.3)
    twin = FaultInjector(spec)  # replays the latency draws
    reset_global_cache()
    cf = saxpy_filter()
    cf.injector = FaultInjector(spec)
    real = glue.time_launch
    timed = []

    def recording(trace, device):
        timed.append((trace, real(trace, device)))
        return timed[-1][1]

    monkeypatch.setattr(glue, "time_launch", recording)
    charged = []
    for _ in range(6):
        cf(frozen())
        charged.append(cf.last_timing.kernel_ns)

    (trace, shared), rest = timed[0], timed[1:]
    assert len(timed) == 6
    assert all(other is shared for _, other in rest)
    clean = analyze_launch(trace, cf.device)
    assert_same_timing(shared, clean)
    for got in charged:
        extra = twin.launch_latency_ns(clean.kernel_ns)
        assert extra > 0.0
        assert got == clean.kernel_ns + extra


# -- the key holds the contents ------------------------------------------------------

# Kernels whose trace follows their buffers' contents: an index, a
# branch, a trip count or a lazy access reads memory. Each records one
# trace over positive contents and another over the same buffers zeroed.
MOVES_WITH_CONTENTS = {
    "gather": GATHER,
    "scatter": """
        __kernel void k(__global float* y, __global const int* idx) {
            int i = get_global_id(0);
            y[idx[i]] = 1.0f;
        }
        """,
    # The index reads a variable that memory sets later in the loop body.
    "loop-carried index": """
        __kernel void k(__global float* y, __global const int* x) {
            int i = get_global_id(0);
            int j = 0;
            for (int k = 0; k < 4; k++) {
                y[i * 4 + j] = 1.0f;
                j = x[k];
            }
        }
        """,
    "image coordinate": """
        __kernel void k(__read_only image2d_t t, __global float* y,
                        __global const int* x) {
            const sampler_t smp = CLK_NORMALIZED_COORDS_FALSE;
            int i = get_global_id(0);
            float4 texel = read_imagef(t, smp, (int2)(x[i], 0));
            y[i] = texel.x;
        }
        """,
    "branch": """
        __kernel void k(__global float* y, __global const float* x) {
            int i = get_global_id(0);
            if (x[i] > 0.0f) {
                y[i] = 1.0f;
            }
        }
        """,
    "for bound": """
        __kernel void k(__global float* y, __global const int* counts) {
            int i = get_global_id(0);
            float acc = 0.0f;
            for (int k = 0; k < counts[i]; k++) {
                acc = acc + 1.0f;
            }
            y[i] = acc;
        }
        """,
    # The bounds are constants, but the body assigns the loop variable
    # from memory: the trip count follows x.
    "for variable assigned in the body": """
        __kernel void k(__global float* y, __global const int* x) {
            int i = get_global_id(0);
            for (int k = 0; k < 4; k++) {
                y[i] = 1.0f;
                k = k + x[i];
            }
        }
        """,
    "while condition": """
        __kernel void k(__global int* y, __global const int* limit) {
            int i = get_global_id(0);
            int k = 0;
            while (k < limit[0]) {
                k = k + 1;
            }
            y[i] = k;
        }
        """,
    "select arm": """
        __kernel void k(__global float* y, __global const int* flag,
                        __global const float* a) {
            int i = get_global_id(0);
            y[i] = flag[i] > 0 ? a[i] : 0.0f;
        }
        """,
    "short circuit": """
        __kernel void k(__global int* y, __global const int* flag,
                        __global const float* a) {
            int i = get_global_id(0);
            y[i] = flag[i] > 0 && a[i] > 0.0f;
        }
        """,
}

# Two devices per content: the key holds the device model too.
MEMO_DEVICES = (GTX580, DEVICES["hd5970"])


def assert_each_content_timed_once(compiled, contents, fresh_analyses):
    """Launch ``compiled`` (no model, so every launch runs and records
    its trace) on each of two ``(buffers, scalars)`` at one shape. The
    memo times each content once per device, and answers a repeat of
    either with its own timing, which equals a fresh analysis of the
    repeat's trace. Returns the first trace of each content."""

    def launched(k):
        buffers, scalars = contents[k]
        copies = {name: buf.copy() for name, buf in buffers.items()}
        return compiled.launch(copies, scalars, GLOBAL_SIZE, LOCAL_SIZE)

    before = len(fresh_analyses)
    first = [launched(0), launched(1)]
    assert first[0].shape[:-1] == first[1].shape[:-1]
    assert first[0].shape != first[1].shape
    timed = {(k, d): time_launch(first[k], d) for k in (0, 1) for d in MEMO_DEVICES}
    assert len(fresh_analyses) - before == 4
    assert len(compiled.timings) == 4
    for k in (1, 0):
        again = launched(k)
        assert again.shape == first[k].shape and not again.reused
        for device in MEMO_DEVICES:
            got = time_launch(again, device)
            assert got is timed[k, device]
            assert_same_timing(got, analyze_launch(again, device))
    assert len(fresh_analyses) - before == 4
    return first


def trace_moved(first, second):
    """Whether two traces differ in an op count or a site's lanes or
    indices."""
    if first.op_cycles != second.op_cycles or first.sites.keys() != second.sites.keys():
        return True
    return any(
        not np.array_equal(got, want)
        for site, trace in first.sites.items()
        for got, want in zip(second.sites[site].arrays(), trace.arrays())
    )


@pytest.mark.parametrize("case", sorted(MOVES_WITH_CONTENTS))
def test_contents_that_move_the_trace_are_timed_apart(case, fresh_analyses):
    compiled = CompiledKernel(kernel(MOVES_WITH_CONTENTS[case]))
    positive, scalars = random_args(compiled.kernel, 1)
    zeroed = {name: np.zeros_like(buf) for name, buf in positive.items()}
    first = assert_each_content_timed_once(
        compiled, [(positive, scalars), (zeroed, scalars)], fresh_analyses
    )
    # Not vacuous: a key without the contents would mix two traces.
    assert trace_moved(*first)


def test_rpes_gather_trace_follows_buffer_contents(fresh_analyses):
    """RPES's table index moves with its input, so its timing must
    follow the contents: ``base = (int)(pair[3] * 0.25f)``."""
    path = next(p for p in GOLDEN_SOURCES if p.stem == "parboil-rpes-gtx580")
    (ir,) = compile_opencl_source(path.read_text()).values()
    compiled = CompiledKernel(ir)
    contents = [random_args(ir, seed) for seed in (1, 2)]
    first, second = assert_each_content_timed_once(compiled, contents, fresh_analyses)
    assert any(
        not np.array_equal(trace.arrays()[1], second.sites[site].arrays()[1])
        for site, trace in first.sites.items()
    )


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
@pytest.mark.parametrize("config", ["default", "nolocal"])
def test_app_kernel_memo_times_each_content_once(config, name, fresh_analyses):
    kernels = compile_app(name, device=GTX580, config=CONFIGS[config])
    assert kernels
    for ir, _compiled in kernels:
        contents = [random_args(ir, seed) for seed in (1, 2)]
        assert_each_content_timed_once(CompiledKernel(ir), contents, fresh_analyses)


@pytest.mark.parametrize("path", GOLDEN_SOURCES, ids=[p.stem for p in GOLDEN_SOURCES])
def test_golden_kernel_memo_times_each_content_once(path, fresh_analyses):
    for ir in compile_opencl_source(path.read_text()).values():
        contents = [random_args(ir, seed) for seed in (1, 2)]
        assert_each_content_timed_once(CompiledKernel(ir), contents, fresh_analyses)


# -- around launch reuse -------------------------------------------------------------


def assert_full_trace(trace, compiled):
    assert trace.timing is None
    assert trace.sites.keys() == compiled.site_meta.keys()
    assert all(site.accesses for site in trace.sites.values())
    assert trace.total_ops() > 0


def axpb_batch_launch(compiled, fill):
    y, x = np.zeros(16, np.float32), np.full(16, fill, np.float32)
    trace = compiled.launch({"y": y, "x": x}, {"a": 2.0, "b": 1}, 16, 8, model=GTX580)
    return trace, y


def test_batch_launch_of_new_contents_at_a_timed_shape_records_a_full_trace():
    compiled = CompiledKernel(kernel(AXPB))
    assert compiled.batch_supported
    for fill in (1.0, 2.0):
        trace, _y = axpb_batch_launch(compiled, fill)
        assert trace.tier == "batch" and not trace.reused
        assert_full_trace(trace, compiled)
        time_launch(trace, GTX580)
    # One timing per content.
    assert len(compiled.timings) == 2


def test_identical_batch_launch_reuses():
    compiled = CompiledKernel(kernel(AXPB))
    first, want = axpb_batch_launch(compiled, 1.0)
    timed = time_launch(first, GTX580)
    trace, y = axpb_batch_launch(compiled, 1.0)
    assert trace.tier == "batch" and trace.reused
    assert trace.sites == {} and trace.timing is timed
    assert y.tobytes() == want.tobytes()


def test_reused_launch_times_only_on_its_model():
    compiled = CompiledKernel(kernel(AXPB))
    time_launch(axpb_batch_launch(compiled, 1.0)[0], GTX580)
    hit, _y = axpb_batch_launch(compiled, 1.0)
    assert hit.reused
    with pytest.raises(ValueError, match="GTX 580"):
        time_launch(hit, DEVICES["gtx8800"])
    with pytest.raises(ValueError, match="reused"):
        analyze_launch(hit, GTX580)


EMPTY_BODIES = """
__kernel void k(__global int* y, int n) {
    int i = get_global_id(0);
    int z = 0;
    while (z) {
    }
    if (n > 2) {
    }
    y[i] = z + n;
}
"""


def test_empty_bodies_run_per_item_and_sanitized():
    # An empty while body still holds its condition test; an empty if
    # body gets pass, in the per-item and sanitized sources alike.
    compiled = CompiledKernel(kernel(EMPTY_BODIES))
    for guard in (None, LaunchGuard(SanitizerConfig(), "k")):
        y = np.zeros(8, dtype=np.int32)
        trace = compiled.launch({"y": y}, {"n": 3}, 8, 4, tier="per-item", guard=guard)
        assert trace.tier == ("per-item" if guard is None else "sanitized")
        assert y.tolist() == [3] * 8
    assert compiled.source.count("pass") == 1
    assert compiled.sanitized_source.count("pass") == 1
