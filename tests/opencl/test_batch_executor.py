"""The vectorized batch tier: eligibility, fallback, and guards.

The batch tier executes a whole NDRange as NumPy array operations, but
only for kernels whose semantics survive the lowering: no barriers, no
divergent branches, no data-dependent *inner* loops, no local-memory
tiling. These tests pin down both sides of that contract:

- ineligible kernels **decline** with a specific reason and fall back
  to per-item execution even when ``tier="batch"`` is requested;
- eligible kernels run batched, bit-identically to per-item;
- a sanitizer guard always forces the instrumented per-item path —
  bounds faults still fire when the caller asked for ``batch``;
- tier resolution: explicit argument beats the ``REPRO_EXEC_TIER``
  environment variable beats ``auto``; unknown names are structured
  errors. An offloader reads the variable once, when it is built; a
  bare launch runs ``auto``.
"""

import numpy as np
import pytest

from repro.compiler.pipeline import Offloader
from repro.errors import BoundsFault, DeviceError
from repro.frontend import check_program, parse_program
from repro.opencl import get_device
from repro.opencl.clc import compile_opencl_source
from repro.opencl.executor import (
    EXEC_TIER_ENV,
    compile_kernel,
    resolve_exec_tier,
)
from repro.runtime.profiler import ExecutionProfile
from repro.runtime.sanitizer import LaunchGuard, SanitizerConfig

from tests.conftest import SAXPY_SOURCE

ELIGIBLE = """
__kernel void saxpy(__global float* out, __global const float* x,
                    float a, int n) {
    int i = get_global_id(0);
    out[i] = a * x[i] + 1.0f;
}
"""

BARRIER_TILED = """
__kernel void tiled(__global float* out, __global const float* in, int n) {
    __local float tile[8];
    int lid = get_local_id(0);
    int gid = get_global_id(0);
    tile[lid] = in[gid];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[gid] = tile[7 - lid];
}
"""

DIVERGENT = """
__kernel void branchy(__global float* out, __global const float* x, int n) {
    int i = get_global_id(0);
    if (x[i] > 0.5f) {
        out[i] = x[i] * 2.0f;
    } else {
        out[i] = 0.0f;
    }
}
"""

NESTED_DATA_DEPENDENT = """
__kernel void nested(__global int* out, __global const int* bounds, int n) {
    int i = get_global_id(0);
    int acc = 0;
    for (int j = 0; j < n; j = j + 1) {
        for (int k = 0; k < bounds[i]; k = k + 1) {
            acc = acc + k;
        }
    }
    out[i] = acc;
}
"""

OOB_WRITE = """
__kernel void oob(__global float* out, __global const float* x, int n) {
    int i = get_global_id(0);
    out[i + n] = x[i];
}
"""


CASTS = """
__kernel void casts(__global int* oi, __global long* ol,
                    __global const double* x, int n) {
    int i = get_global_id(0);
    oi[i] = (int) x[i];
    ol[i] = (long) x[i];
}
"""


def _compile(source, name):
    return compile_kernel(compile_opencl_source(source)[name])


def _saxpy_buffers(n=8):
    return (
        {
            "out": np.zeros(n, dtype=np.float32),
            "x": np.linspace(0.0, 1.0, n).astype(np.float32),
        },
        {"a": 3.0, "n": n},
    )


# -- eligibility ---------------------------------------------------------


def test_eligible_kernel_is_batch_supported():
    ck = _compile(ELIGIBLE, "saxpy")
    assert ck.batch_supported
    assert ck._batch_callable() is not None


def _kernel(body, params="__global float* y"):
    return "__kernel void k({}) {{{}}}".format(params, body)


# One kernel per reason the batch tier declines with, compared by
# equality: a reworded reason, or two checks that swap order, shows up
# here.
DECLINES = [
    pytest.param("local-memory tiling", BARRIER_TILED, id="local-memory"),
    pytest.param(
        "vector private array",
        _kernel("float4 p[2]; y[get_global_id(0)] = 1.0f;"),
        id="vector-private-array",
    ),
    pytest.param(
        "image loads",
        _kernel(
            """
            const sampler_t smp = CLK_NORMALIZED_COORDS_FALSE;
            int i = get_global_id(0);
            float4 row = read_imagef(t, smp, (int2)(i, 0));
            y[i] = row.y;
            """,
            "__read_only image2d_t t, __global float* y",
        ),
        id="image",
    ),
    pytest.param(
        "division on a lazily-evaluated path",
        _kernel(
            "int i = get_global_id(0); y[i] = i > 0 ? (float) (n / i) : 0.0f;",
            "__global float* y, int n",
        ),
        id="division-select-arm",
    ),
    pytest.param(
        "division on a lazily-evaluated path",
        _kernel(
            "int i = get_global_id(0);"
            " y[i] = (i > 0 && n / i > 1) ? 1.0f : 0.0f;",
            "__global float* y, int n",
        ),
        id="division-and-right",
    ),
    # At top level the vector declaration declines first.
    pytest.param(
        "vector arithmetic",
        _kernel(
            """
            for (int j = get_global_id(0); j < n; j += get_global_size(0)) {
                float4 v = vload4(j, x);
                vstore4(v * 2.0f, j, y);
            }
            """,
            "__global float* y, __global const float* x, int n",
        ),
        id="vector-arithmetic",
    ),
    pytest.param(
        "64-bit unsigned shift",
        _kernel(
            "int i = get_global_id(0); w[i] = u[i] >>> 3;",
            "__global long* w, __global const long* u",
        ),
        id="long-unsigned-shift",
    ),
    pytest.param(
        "rsqrt on a lazily-evaluated path",
        _kernel("int i = get_global_id(0); y[i] = i > 0 ? rsqrt((float) i) : 0.0f;"),
        id="rsqrt-select-arm",
    ),
    pytest.param(
        "memory access on a lazily-evaluated path",
        _kernel(
            "int i = get_global_id(0); y[i] = i < n ? x[i] : 0.0f;",
            "__global float* y, __global const float* x, int n",
        ),
        id="memory-select-arm",
    ),
    pytest.param(
        "memory access on a lazily-evaluated path",
        _kernel(
            "int i = get_global_id(0);"
            " y[i] = (i >= n || x[i] > 2.0f) ? 1.0f : 0.0f;",
            "__global float* y, __global const float* x, int n",
        ),
        id="memory-or-right",
    ),
    pytest.param(
        "vector access to a private array",
        _kernel(
            """
            float p[8];
            int i = get_global_id(0);
            p[0] = 1.0f;
            float4 v = vload4(0, p);
            y[i] = v.x;
            """
        ),
        id="vload-private",
    ),
    pytest.param(
        "barrier synchronization",
        _kernel("y[get_global_id(0)] = 1.0f; barrier(CLK_GLOBAL_MEM_FENCE);"),
        id="barrier",
    ),
    pytest.param(
        "data-dependent while loop",
        _kernel(
            "int k = 0; while (k < n) { k = k + 1; } y[get_global_id(0)] = k;",
            "__global float* y, int n",
        ),
        id="while",
    ),
    # (the clc frontend lowers a for whose update is not `+=` into a
    # while loop)
    pytest.param(
        "data-dependent while loop", NESTED_DATA_DEPENDENT, id="nested-while"
    ),
    pytest.param("divergent branch", DIVERGENT, id="if"),
    pytest.param(
        "loop control jump",
        _kernel("for (int k = 0; k < 4; k++) { y[get_global_id(0)] = k; break; }"),
        id="break",
    ),
    pytest.param(
        "loop control jump",
        _kernel(
            "for (int k = 0; k < 4; k++) { y[get_global_id(0)] = k; continue; }"
        ),
        id="continue",
    ),
    pytest.param(
        "loop control jump",
        _kernel("y[get_global_id(0)] = 1.0f; return;"),
        id="return",
    ),
    pytest.param(
        "varying vector variable at top level",
        _kernel(
            "int i = get_global_id(0); float4 v = vload4(i, x); vstore4(v, i, y);",
            "__global float* y, __global const float* x",
        ),
        id="top-level-vector",
    ),
    pytest.param(
        "cross-iteration assignment to an outer variable",
        _kernel(
            """
            float acc = 0.0f;
            for (int j = get_global_id(0); j < n; j += get_global_size(0)) {
                acc = acc + x[j];
            }
            y[get_global_id(0)] = acc;
            """,
            "__global float* y, __global const float* x, int n",
        ),
        id="cross-iteration",
    ),
    # The first loop's `t` ends with that loop, so the second loop
    # assigns the outer one.
    pytest.param(
        "cross-iteration assignment to an outer variable",
        _kernel(
            """
            int i = get_global_id(0);
            float t = x[i];
            for (int j = get_global_id(0); j < n; j += get_global_size(0)) {
                float t = 1.0f;
                y[j] = t;
            }
            for (int j = get_global_id(0); j < n; j += get_global_size(0)) {
                t = t + x[j];
            }
            y[i] = t;
            """,
            "__global float* y, __global const float* x, int n",
        ),
        id="cross-iteration-after-shadowing",
    ),
    pytest.param(
        "nested data-dependent loop",
        _kernel(
            """
            for (int k = 0; k < 2; k++) {
                for (int j = get_global_id(0); j < n; j += get_global_size(0)) {
                    y[j] = k;
                }
            }
            """,
            "__global float* y, int n",
        ),
        id="nested-stride-loop",
    ),
    # Uniform bounds, but the body gives the variable a lane-varying
    # value, so `while k < hi` would compare a lane array.
    pytest.param(
        "lane-varying loop variable",
        _kernel(
            "int i = get_global_id(0);"
            " for (int k = 0; k < 4; k++) { y[i] = 1.0f; k = k + m[i]; }",
            "__global float* y, __global const int* m",
        ),
        id="lane-varying-loop",
    ),
]

_DTYPES = {"float": np.float32, "int": np.int32, "long": np.int64}


def _ramp_args(kernel, items):
    """A ramp in every buffer, with room for a 4-wide access per item,
    and ``items`` for every scalar."""
    buffers, scalars = {}, {}
    for param in kernel.params:
        if param.is_pointer:
            dtype = _DTYPES[param.ktype.kind]
            buffers[param.name] = np.arange(4 * items, dtype=dtype)
        else:
            scalars[param.name] = items
    return buffers, scalars


@pytest.mark.parametrize("reason,source", DECLINES)
def test_declining_kernel_names_its_reason_and_runs_per_item(reason, source):
    (kernel,) = compile_opencl_source(source).values()
    ck = compile_kernel(kernel)
    assert not ck.batch_supported
    assert ck.batch_reason == reason
    assert ck._batch_callable() is None
    outputs = {}
    for tier in ("per-item", "auto"):
        buffers, scalars = _ramp_args(kernel, 8)
        assert ck.launch(buffers, scalars, 8, 8, tier=tier).tier == "per-item"
        outputs[tier] = buffers
    for name, buf in outputs["per-item"].items():
        assert np.array_equal(buf, outputs["auto"][name]), name


def test_shadowing_declaration_is_its_own_variable():
    # C scoping: the first loop's `float t` is a variable of its own,
    # so the outer `t` still holds x[i] when the second loop adds to it.
    (source,) = [
        param.values[1]
        for param in DECLINES
        if param.id == "cross-iteration-after-shadowing"
    ]
    ck = _compile(source, "k")
    for guard in (None, LaunchGuard(SanitizerConfig(), "k")):
        buffers = {
            "y": np.zeros(32, dtype=np.float32),
            "x": np.arange(32, dtype=np.float32),
        }
        ck.launch(buffers, {"n": 20}, 8, 8, guard=guard, tier="per-item")
        assert buffers["y"][:8].tolist() == [24, 28, 32, 36, 20, 23, 26, 29]


LOAD_THEN_STORE = """
__kernel void k(__global float* y, __global float* x) {
    int i = get_global_id(0);
    float4 v = vload4(i, x);
    vstore4((float4)(9.0f), i, x);
    y[i] = v.x + v.w;
}
"""


def test_loaded_vector_keeps_its_values_after_a_store():
    # C: v holds x[4i..4i+3] as loaded, whatever is stored to x later.
    # A vector that viewed the buffer would read the 9s back (18 each).
    ck = _compile(LOAD_THEN_STORE, "k")
    for guard in (None, LaunchGuard(SanitizerConfig(), "k")):
        buffers = {
            "y": np.zeros(4, dtype=np.float32),
            "x": np.arange(16, dtype=np.float32),
        }
        ck.launch(buffers, {}, 4, 4, guard=guard, tier="per-item")
        assert buffers["y"].tolist() == [3, 11, 19, 27]
        assert buffers["x"].tolist() == [9.0] * 16


# -- fallback semantics --------------------------------------------------


def test_batch_request_on_ineligible_kernel_falls_back_per_item():
    ck = _compile(BARRIER_TILED, "tiled")
    n = 8
    buffers = {
        "out": np.zeros(n, dtype=np.float32),
        "in": np.arange(n, dtype=np.float32),
    }
    trace = ck.launch(buffers, {"n": n}, n, 8, tier="batch")
    assert trace.tier == "per-item"
    assert np.array_equal(buffers["out"], np.arange(n, dtype=np.float32)[::-1])


def test_batch_runs_batched_and_matches_per_item():
    ck = _compile(ELIGIBLE, "saxpy")
    bufs_a, scalars = _saxpy_buffers()
    bufs_b = {k: v.copy() for k, v in bufs_a.items()}
    t_item = ck.launch(bufs_a, scalars, 8, 4, tier="per-item")
    t_batch = ck.launch(bufs_b, scalars, 8, 4, tier="batch")
    assert t_item.tier == "per-item"
    assert t_batch.tier == "batch"
    assert np.array_equal(bufs_a["out"], bufs_b["out"])
    assert t_item.op_cycles == t_batch.op_cycles


@pytest.mark.parametrize(
    "value",
    [1e19, -1e19, 2.0**63, 3e9, -2.5, float("nan"), float("inf"), float("-inf")],
)
def test_float_to_int_casts_agree_across_tiers(value):
    # Out-of-range and non-finite casts either wrap the same way on
    # both tiers or fault with the same exception type.
    ck = _compile(CASTS, "casts")
    assert ck.batch_supported
    x = np.array([1.5, value, -7.25, 0.0])
    outcomes = {}
    for tier in ("per-item", "batch"):
        bufs = {
            "oi": np.zeros(4, dtype=np.int32),
            "ol": np.zeros(4, dtype=np.int64),
            "x": x.copy(),
        }
        try:
            assert ck.launch(bufs, {"n": 4}, 4, 4, tier=tier).tier == tier
        except (ValueError, OverflowError) as err:
            outcomes[tier] = type(err)
        else:
            outcomes[tier] = (bufs["oi"].tolist(), bufs["ol"].tolist())
    assert outcomes["per-item"] == outcomes["batch"]


# -- sanitizer guards force the instrumented path ------------------------


def test_guard_overrides_batch_request():
    ck = _compile(ELIGIBLE, "saxpy")
    buffers, scalars = _saxpy_buffers()
    guard = LaunchGuard(SanitizerConfig(), "saxpy")
    trace = ck.launch(buffers, scalars, 8, 4, guard=guard, tier="batch")
    assert trace.tier == "sanitized"


def test_bounds_fault_fires_despite_batch_request():
    ck = _compile(OOB_WRITE, "oob")
    buffers, scalars = _saxpy_buffers()
    guard = LaunchGuard(SanitizerConfig(), "oob")
    with pytest.raises(BoundsFault):
        ck.launch(buffers, scalars, 8, 4, guard=guard, tier="batch")
    assert guard.trips.get("bounds")


def test_unguarded_oob_is_a_device_error_on_both_tiers():
    ck = _compile(OOB_WRITE, "oob")
    for tier in ("per-item", "batch"):
        buffers, scalars = _saxpy_buffers()
        with pytest.raises(DeviceError):
            ck.launch(buffers, scalars, 8, 4, tier=tier)


# -- tier resolution -----------------------------------------------------


def test_resolve_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(EXEC_TIER_ENV, "per-item")
    assert resolve_exec_tier("batch") == "batch"


def test_resolve_env_beats_auto(monkeypatch):
    monkeypatch.setenv(EXEC_TIER_ENV, "per-item")
    assert resolve_exec_tier(None) == "per-item"
    monkeypatch.delenv(EXEC_TIER_ENV)
    assert resolve_exec_tier(None) == "auto"


def test_resolve_unknown_tier_raises(monkeypatch):
    with pytest.raises(DeviceError):
        resolve_exec_tier("warp-speed")
    monkeypatch.setenv(EXEC_TIER_ENV, "bogus")
    with pytest.raises(DeviceError):
        resolve_exec_tier(None)


def _offloaded_launch_tiers(offloader, monkeypatch):
    """The tiers one Saxpy item runs under ``offloader``, launched after
    the environment asks for ``batch``."""
    checked = check_program(parse_program(SAXPY_SOURCE))
    profile = ExecutionProfile()
    cf = offloader.compile_filter(
        checked, checked.lookup_method("Saxpy", "apply"), profile
    )
    monkeypatch.setenv(EXEC_TIER_ENV, "batch")
    xs = np.arange(8, dtype=np.float32)
    xs.setflags(write=False)
    cf(xs)
    return {
        key: value
        for key, value in profile.metrics.as_dict().items()
        if key.startswith("executor.launches.")
    }


def test_env_var_drives_offloader_tier(monkeypatch):
    monkeypatch.setenv(EXEC_TIER_ENV, "per-item")
    offloader = Offloader(get_device("gtx580"))
    assert offloader.options.exec_tier == "per-item"
    assert _offloaded_launch_tiers(offloader, monkeypatch) == {
        "executor.launches.per-item": 1
    }


def test_explicit_offloader_tier_beats_env_var(monkeypatch):
    monkeypatch.setenv(EXEC_TIER_ENV, "per-item")
    offloader = Offloader(get_device("gtx580"), exec_tier="batch")
    assert _offloaded_launch_tiers(offloader, monkeypatch) == {
        "executor.launches.batch": 1
    }


def test_bare_launch_runs_auto_whatever_the_env_var(monkeypatch):
    monkeypatch.setenv(EXEC_TIER_ENV, "per-item")
    ck = _compile(ELIGIBLE, "saxpy")
    buffers, scalars = _saxpy_buffers()
    assert ck.launch(buffers, scalars, 8, 4).tier == "batch"
