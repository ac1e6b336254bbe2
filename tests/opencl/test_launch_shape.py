"""Launch shapes: which kernels record the same trace whatever their
buffers hold, and the timing memo that answers a repeated shape.

:func:`shape_fixed` decides statically whether a kernel's trace, every
site's lanes and indices and every segment count, is a function of its
launch shape (global size, local size, ``index_base`` and the scalar
arguments). :func:`repro.opencl.timing.time_launch` then times each
shape once per device and answers every later launch of it from the
kernel's timing memo, and a per-item launch that the memo answers runs
the kernel's untraced source.

Four groups of checks:

- the verdicts: one small kernel per decline reason, the ten apps'
  kernels and the golden OpenCL-C snapshots;
- soundness, written per kernel (:func:`assert_trace_ignores_contents`,
  :func:`assert_tiers_time_alike`) so that any kernel source can feed
  them: two launches at one shape over different random contents
  record identical traces, on every tier the kernel runs;
- the memo itself: every hit equals a fresh analysis over the ten apps
  on all four devices, the key is exact, the bound, the lifetime, the
  number of fresh analyses, and straggler latency that never leaks into
  the shared timing;
- untraced hits: a hit writes what a traced launch writes and records
  no site, only an unguarded per-item hit given its device model runs
  untraced, a disk-loaded kernel does so without codegen, and its
  timing answers for that model alone. Each of these launches new
  contents, or empties the kernel's launch-result memo first, so that
  no launch here reuses an earlier one's results
  (``tests/opencl/test_launch_reuse.py``).
"""

import collections
import pathlib
import pickle
import re

import numpy as np
import pytest

import repro.backend.glue as glue
import repro.opencl.timing as timing
from repro.apps.registry import ALL_BENCHMARKS
from repro.backend import kernel_ir as K
from repro.evaluation.harness import run_configuration
from repro.opencl.clc import compile_opencl_source
from repro.opencl.device import DEVICES, GTX580
from repro.opencl.executor import CompiledKernel, codegen_compiles, shape_fixed
from repro.opencl.kernel_cache import cached_compile_kernel, reset_global_cache
from repro.opencl.timing import analyze_launch, time_launch
from repro.runtime.resilience import FaultInjector, FaultSpec
from repro.runtime.sanitizer import LaunchGuard, SanitizerConfig
from tests.opencl.test_kernel_cache_key import CONFIGS, compile_app
from tests.runtime.test_latency_faults import frozen, saxpy_filter

GOLDEN_SOURCES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "golden").glob("*.cl")
)

# Small end-to-end runs: every app at its default steps.
SCALE = 0.05
MAX_SIM_ITEMS = 256


def kernel(source):
    (ir,) = compile_opencl_source(source).values()
    return ir


# -- verdicts ------------------------------------------------------------------

DECLINES = {
    "gather": (
        """
        __kernel void k(__global float* y, __global const int* idx,
                        __global const float* x) {
            int i = get_global_id(0);
            y[i] = x[idx[i]];
        }
        """,
        "memory-dependent index",
    ),
    "scatter": (
        """
        __kernel void k(__global float* y, __global const int* idx) {
            int i = get_global_id(0);
            y[idx[i]] = 1.0f;
        }
        """,
        "memory-dependent index",
    ),
    # The index reads a variable that depends on memory only through
    # an assignment later in the loop body: the fixpoint's second pass.
    "loop-carried index": (
        """
        __kernel void k(__global float* y, __global const int* x) {
            int i = get_global_id(0);
            int j = 0;
            for (int k = 0; k < 4; k++) {
                y[i * 4 + j] = 1.0f;
                j = x[k];
            }
        }
        """,
        "memory-dependent index",
    ),
    "image coordinate": (
        """
        __kernel void k(__read_only image2d_t t, __global float* y,
                        __global const int* x) {
            const sampler_t smp = CLK_NORMALIZED_COORDS_FALSE;
            int i = get_global_id(0);
            float4 texel = read_imagef(t, smp, (int2)(x[i], 0));
            y[i] = texel.x;
        }
        """,
        "memory-dependent index",
    ),
    "branch": (
        """
        __kernel void k(__global float* y, __global const float* x) {
            int i = get_global_id(0);
            if (x[i] > 0.0f) {
                y[i] = 1.0f;
            }
        }
        """,
        "memory-dependent branch",
    ),
    "for bound": (
        """
        __kernel void k(__global float* y, __global const int* counts) {
            int i = get_global_id(0);
            float acc = 0.0f;
            for (int k = 0; k < counts[i]; k++) {
                acc = acc + 1.0f;
            }
            y[i] = acc;
        }
        """,
        "memory-dependent loop bound",
    ),
    # The bounds are constants, but the per-item loop tests the variable
    # the body assigns from memory: the trip count follows x.
    "for variable assigned in the body": (
        """
        __kernel void k(__global float* y, __global const int* x) {
            int i = get_global_id(0);
            for (int k = 0; k < 4; k++) {
                y[i] = 1.0f;
                k = k + x[i];
            }
        }
        """,
        "memory-dependent loop bound",
    ),
    "while condition": (
        """
        __kernel void k(__global int* y, __global const int* limit) {
            int i = get_global_id(0);
            int k = 0;
            while (k < limit[0]) {
                k = k + 1;
            }
            y[i] = k;
        }
        """,
        "memory-dependent loop bound",
    ),
    "select arm": (
        """
        __kernel void k(__global float* y, __global const int* flag,
                        __global const float* a) {
            int i = get_global_id(0);
            y[i] = flag[i] > 0 ? a[i] : 0.0f;
        }
        """,
        "memory-dependent lazy access",
    ),
    "short circuit": (
        """
        __kernel void k(__global int* y, __global const int* flag,
                        __global const float* a) {
            int i = get_global_id(0);
            y[i] = flag[i] > 0 && a[i] > 0.0f;
        }
        """,
        "memory-dependent lazy access",
    ),
}

# Memory reaches only stored values: a select without an access in its
# arms, and branches and indices on lane ids and scalars.
STORED_VALUES_ONLY = """
__kernel void k(__global float* y, __global const float* x, int n) {
    int i = get_global_id(0);
    if (i < n) {
        float v = x[i];
        float w = v > 0.5f ? v * 2.0f : v;
        y[i] = w + x[i + 1];
    }
}
"""


@pytest.mark.parametrize("case", sorted(DECLINES))
def test_decline_reason(case):
    source, reason = DECLINES[case]
    assert shape_fixed(kernel(source)) == (False, reason)


def test_memory_reaching_only_stored_values_is_shape_fixed():
    assert shape_fixed(kernel(STORED_VALUES_ONLY)) == (True, "")


@pytest.mark.parametrize("config", ["default", "nolocal"])
def test_app_kernels_are_shape_fixed_but_rpes_integrals(config):
    verdicts = {}
    for name in ALL_BENCHMARKS:
        for ir, compiled in compile_app(name, device=GTX580, config=CONFIGS[config]):
            verdicts[name, ir.name] = (compiled.shape_fixed, compiled.shape_reason)
    assert ("pipeline3", "Pipe_scale__Pipe_smooth__Pipe_sharpen_kernel") in verdicts
    declined = {key: v for key, v in verdicts.items() if v != (True, "")}
    # RPES.integrals reads table[base + k], base = (int)(pair[3] * 0.25f).
    assert declined == {
        ("parboil-rpes", "RPES_integrals_kernel"): (False, "memory-dependent index")
    }


# -- soundness, per kernel -------------------------------------------------------

# One launch shape for every kernel below: 40 items on 32 lanes in work-
# groups of 16, every ``_len_<array>`` scalar 24, and room for 64
# elements per item in every buffer.
N_ITEMS, LENGTH, GLOBAL_SIZE, LOCAL_SIZE, SLACK = 40, 24, 32, 16, 64

_DTYPES = {
    "bool": np.bool_,
    "char": np.int8,
    "int": np.int32,
    "long": np.int64,
    "float": np.float32,
    "double": np.float64,
}


def random_args(ir, seed):
    """Buffers with random contents and the shape's scalars: positive
    values, so no kernel divides by zero or stores a NaN, and floats up
    to 64, so a float that reached an index would move it."""
    rng = np.random.default_rng(seed)
    buffers, scalars = {}, {}
    for param in ir.params:
        ktype = param.ktype
        width = ktype.width if isinstance(ktype, K.KVector) else 1
        base = ktype.base if isinstance(ktype, K.KVector) else ktype
        dtype = _DTYPES[base.kind]
        if param.is_pointer:
            size = SLACK * width * max(N_ITEMS, LENGTH, GLOBAL_SIZE)
            if base.is_float:
                values = rng.uniform(0.5, 64.0, size)
            else:
                values = rng.integers(1, 100, size)
            buffers[param.name] = values.astype(dtype)
        elif param.name == "_n":
            scalars[param.name] = N_ITEMS
        else:
            scalars[param.name] = 1.5 if base.is_float else LENGTH
    return buffers, scalars


def launch(compiled, seed, tier, sanitized=False):
    buffers, scalars = random_args(compiled.kernel, seed)
    guard = None
    if sanitized:
        guard = LaunchGuard(SanitizerConfig(), compiled.kernel.name)
    return compiled.launch(
        buffers, scalars, GLOBAL_SIZE, LOCAL_SIZE, tier=tier, guard=guard
    )


def assert_trace_ignores_contents(compiled):
    """Two launches of one shape over different buffer contents record
    the same shape stamp, op cycles and per-site lanes and indices, on
    every tier the kernel runs."""
    assert compiled.shape_fixed, compiled.shape_reason
    tiers = ["per-item"] + (["batch"] if compiled.batch_supported else [])
    for tier in tiers:
        first, second = (launch(compiled, seed, tier) for seed in (1, 2))
        assert first.tier == tier
        assert first.shape == second.shape is not None
        assert first.op_cycles == second.op_cycles, tier
        assert first.sites.keys() == second.sites.keys()
        for site, trace in first.sites.items():
            for got, want in zip(second.sites[site].arrays(), trace.arrays()):
                np.testing.assert_array_equal(got, want, err_msg=str((tier, site)))


def assert_same_timing(got, want):
    assert vars(got) == vars(want)
    for site, stats in want.site_stats.items():
        assert vars(got.site_stats[site]) == vars(stats), site


def assert_tiers_time_alike(compiled):
    """The memo key has no tier: per-item, sanitized and batch launches
    of one shape must time alike on every device."""
    traces = [
        launch(compiled, 1, "per-item"),
        launch(compiled, 2, "per-item", sanitized=True),
    ]
    if compiled.batch_supported:
        traces.append(launch(compiled, 3, "batch"))
    assert traces[1].tier == "sanitized"
    for device in DEVICES.values():
        want = analyze_launch(traces[0], device)
        for trace in traces[1:]:
            assert_same_timing(analyze_launch(trace, device), want)


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
@pytest.mark.parametrize("config", ["default", "nolocal"])
def test_app_traces_ignore_buffer_contents(config, name):
    kernels = [
        compiled
        for _ir, compiled in compile_app(name, device=GTX580, config=CONFIGS[config])
        if compiled.shape_fixed
    ]
    assert kernels
    for compiled in kernels:
        assert_trace_ignores_contents(compiled)
        assert_tiers_time_alike(compiled)


@pytest.mark.parametrize("path", GOLDEN_SOURCES, ids=[p.stem for p in GOLDEN_SOURCES])
def test_golden_traces_ignore_buffer_contents(path):
    for name, ir in compile_opencl_source(path.read_text()).items():
        compiled = CompiledKernel(ir)
        if name == "RPES_integrals_kernel":
            assert compiled.shape_reason == "memory-dependent index"
            continue
        assert_trace_ignores_contents(compiled)
        assert_tiers_time_alike(compiled)


def test_rpes_gather_trace_follows_buffer_contents():
    """The decline is needed: RPES's table index moves with its input."""
    path = next(p for p in GOLDEN_SOURCES if p.stem == "parboil-rpes-gtx580")
    (ir,) = compile_opencl_source(path.read_text()).values()
    compiled = CompiledKernel(ir)
    first, second = (launch(compiled, seed, "per-item") for seed in (1, 2))
    assert first.shape is None
    assert any(
        not np.array_equal(trace.arrays()[1], second.sites[site].arrays()[1])
        for site, trace in first.sites.items()
    )


def test_loop_variable_assigned_from_memory_moves_the_trace():
    """The decline is needed: the body's assignment sets the trip count."""
    compiled = CompiledKernel(kernel(DECLINES["for variable assigned in the body"][0]))
    first, second = (
        compiled.launch(
            {"y": np.zeros(8, np.float32), "x": np.full(8, step, np.int32)},
            {},
            8,
            4,
            tier="per-item",
        )
        for step in (0, 2)
    )
    assert first.shape is None
    assert first.op_cycles != second.op_cycles


def test_stored_values_only_kernel_ignores_buffer_contents():
    compiled = CompiledKernel(kernel(STORED_VALUES_ONLY))
    assert_trace_ignores_contents(compiled)
    assert_tiers_time_alike(compiled)


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
    """A per-item hit ran untraced, so it is launched again, traced, on
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
        # Not vacuous: every app repeats a shape of a shape-fixed kernel.
        assert len(hits) > before, name
    # The tiled apps' repeats ran no traced code.
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


AXPB = """
__kernel void k(__global float* y, __global const float* x, float a, int b) {
    int i = get_global_id(0);
    y[i] = a * x[i] + (float)b;
}
"""


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


def test_declined_kernel_is_analysed_every_launch(fresh_analyses):
    compiled = CompiledKernel(kernel(DECLINES["gather"][0]))
    buffers = {
        "y": np.zeros(16, dtype=np.float32),
        "idx": np.arange(16, dtype=np.int32),
        "x": np.ones(16, dtype=np.float32),
    }
    for _ in range(3):
        trace = compiled.launch(dict(buffers), {}, 16, 8)
        assert trace.shape is None and trace.memo is None
        time_launch(trace, GTX580)
    assert len(fresh_analyses) == 3
    assert len(compiled.timings) == 0


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


# -- memo hits run untraced ------------------------------------------------------

# The per-item kernels of the tiled apps, at the default config.
TILED_APPS = ["mosaic", "nbody-double", "nbody-single", "parboil-cp", "parboil-mriq"]


def hit_after_traced_launch(compiled, seed=1):
    """Launch ``compiled`` traced, time it on the GTX 580, empty its
    launch-result memo, then launch it again on copies of the same
    inputs: ``(traced, hit, timing, traced buffers, hit buffers)``."""
    traced_buffers, scalars = random_args(compiled.kernel, seed)
    hit_buffers = {name: buf.copy() for name, buf in traced_buffers.items()}
    traced = compiled.launch(
        traced_buffers, scalars, GLOBAL_SIZE, LOCAL_SIZE, model=GTX580
    )
    timed = time_launch(traced, GTX580)
    compiled.results.clear()  # so the hit runs the untraced source
    hit = compiled.launch(hit_buffers, scalars, GLOBAL_SIZE, LOCAL_SIZE, model=GTX580)
    return traced, hit, timed, traced_buffers, hit_buffers


def assert_hit_runs_untraced(compiled):
    """The second launch of a shape runs the untraced source: it writes
    every buffer as the traced launch did, bit for bit, records no
    site and carries the memo's timing."""
    assert not re.search(r"\b_ti\d", compiled.untraced_source)
    assert "_segc" not in compiled.untraced_source
    traced, hit, timed, traced_buffers, hit_buffers = hit_after_traced_launch(compiled)
    assert traced.timing is None and traced.sites.keys() == compiled.site_meta.keys()
    assert hit.tier == "per-item"
    assert not hit.reused
    assert hit.sites == {}
    assert hit.timing is timed
    assert time_launch(hit, GTX580) is timed
    for name, buf in traced_buffers.items():
        assert hit_buffers[name].tobytes() == buf.tobytes(), name


@pytest.mark.parametrize("name", TILED_APPS)
def test_tiled_app_hits_run_untraced(name):
    kernels = [
        CompiledKernel(ir)
        for ir, compiled in compile_app(name, device=GTX580, config=CONFIGS["default"])
        if compiled.untraced_source is not None
    ]
    assert kernels
    for compiled in kernels:
        assert_hit_runs_untraced(compiled)


@pytest.mark.parametrize("path", GOLDEN_SOURCES, ids=[p.stem for p in GOLDEN_SOURCES])
def test_golden_hits_run_untraced(path):
    for ir in compile_opencl_source(path.read_text()).values():
        compiled = CompiledKernel(ir)
        if compiled.untraced_source is None:
            # Only a shape-fixed kernel without a batch source has one.
            assert not compiled.shape_fixed or compiled.batch_supported
            continue
        assert_hit_runs_untraced(compiled)


BARRIER_REVERSE = """
__kernel void k(__global float* y, __global const float* x, int n) {
    __local float tile[16];
    int lid = get_local_id(0);
    int i = get_global_id(0);
    tile[lid] = x[i];
    barrier(CLK_LOCAL_MEM_FENCE);
    y[i] = tile[15 - lid] * 2.0f;
}
"""


def assert_full_trace(trace, compiled):
    assert trace.timing is None
    assert trace.sites.keys() == compiled.site_meta.keys()
    assert all(site.accesses for site in trace.sites.values())
    assert trace.total_ops() > 0


def test_only_an_unguarded_memo_hit_given_its_model_runs_untraced():
    compiled = CompiledKernel(kernel(BARRIER_REVERSE))
    assert compiled.untraced_source is not None

    def launched(n=16, start=0, **options):
        y = np.zeros(32, np.float32)
        x = np.arange(start, start + 32, dtype=np.float32)
        return compiled.launch({"y": y, "x": x}, {"n": n}, 32, 16, **options)

    miss = launched(model=GTX580)
    assert_full_trace(miss, compiled)
    time_launch(miss, GTX580)
    # New contents at the timed shape: not reused, but untraced.
    hit = launched(start=1, model=GTX580)
    assert hit.timing is not None and not hit.reused
    guard = LaunchGuard(SanitizerConfig(), compiled.kernel.name)
    for trace in (
        launched(model=GTX580, guard=guard),
        launched(),  # no model
        launched(model=DEVICES["gtx8800"]),  # a device not timed yet
        launched(n=8, model=GTX580),  # a shape not timed yet
    ):
        assert_full_trace(trace, compiled)


def axpb_batch_launch(compiled, fill):
    y, x = np.zeros(16, np.float32), np.full(16, fill, np.float32)
    trace = compiled.launch({"y": y, "x": x}, {"a": 2.0, "b": 1}, 16, 8, model=GTX580)
    return trace, y


def test_batch_launch_of_new_contents_at_a_timed_shape_records_a_full_trace():
    compiled = CompiledKernel(kernel(AXPB))
    assert compiled.batch_supported and compiled.untraced_source is None
    for fill in (1.0, 2.0):
        trace, _y = axpb_batch_launch(compiled, fill)
        assert trace.tier == "batch" and not trace.reused
        assert_full_trace(trace, compiled)
        time_launch(trace, GTX580)
    assert len(compiled.timings) == 1


def test_identical_batch_launch_reuses():
    compiled = CompiledKernel(kernel(AXPB))
    first, want = axpb_batch_launch(compiled, 1.0)
    timed = time_launch(first, GTX580)
    trace, y = axpb_batch_launch(compiled, 1.0)
    assert trace.tier == "batch" and trace.reused
    assert trace.sites == {} and trace.timing is timed
    assert y.tobytes() == want.tobytes()


def test_disk_loaded_kernel_runs_untraced_without_codegen():
    art = CompiledKernel(kernel(BARRIER_REVERSE)).artifact()
    before = codegen_compiles()
    restored = CompiledKernel.from_artifact(pickle.loads(pickle.dumps(art)))
    assert restored.untraced_source == art["untraced_source"] is not None
    assert_hit_runs_untraced(restored)
    assert codegen_compiles() == before


def test_untraced_launch_times_only_on_its_model():
    compiled = CompiledKernel(kernel(BARRIER_REVERSE))
    _traced, hit, _timed, _bufs, _hit_bufs = hit_after_traced_launch(compiled)
    assert hit.timing is not None
    with pytest.raises(ValueError, match="GTX 580"):
        time_launch(hit, DEVICES["gtx8800"])
    with pytest.raises(ValueError, match="untraced"):
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


def test_empty_bodies_run_untraced():
    # An empty while body still holds its condition test; an empty if
    # body gets pass, traced and untraced alike.
    compiled = CompiledKernel(kernel(EMPTY_BODIES))
    assert compiled.source.count("pass") == 1
    assert compiled.untraced_source.count("pass") == 1
    assert_hit_runs_untraced(compiled)
