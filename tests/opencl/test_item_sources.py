"""The per-item source forms, pinned by the values kernels store.

Each group is a set of small OpenCL C kernels run on every tier that
accepts them: the per-item and sanitized sources, and the batch source
where the kernel is eligible.

- pure integer expressions are computed once: one kernel per way a
  held temp could go stale or escape, each storing the C values, with
  the number of times the per-item source computes the repeated
  expression;
- a ``while`` loop tests its condition on every iteration: a load in
  the condition is read, traced and bounds-checked each time, and the
  test's ops are charged each time;
- integer vector ``/`` and ``%`` truncate as C does, and a quotient
  wraps to the lane width;
- a load in an operand that may be skipped (a ``?:`` arm, the right
  side of ``&&``) is checked, read and traced only when it runs.
"""

import numpy as np
import pytest

from repro.errors import BoundsFault
from repro.opencl.clc import compile_opencl_source
from repro.opencl.executor import CompiledKernel
from repro.runtime.sanitizer import LaunchGuard, SanitizerConfig


def compiled(source):
    (kernel,) = compile_opencl_source(source).values()
    return CompiledKernel(kernel)


def every_tier(kernel, make_args, global_size, local_size):
    """Launch ``kernel`` once per tier that accepts it, each on fresh
    arguments from ``make_args()``: ``{tier: (trace, buffers)}``."""

    def run(**options):
        buffers, scalars = make_args()
        trace = kernel.launch(buffers, scalars, global_size, local_size, **options)
        return trace, buffers

    runs = {
        "per-item": run(tier="per-item"),
        "sanitized": run(guard=LaunchGuard(SanitizerConfig(), kernel.kernel.name)),
    }
    assert runs["sanitized"][0].tier == "sanitized"
    if kernel.batch_supported:
        runs["batch"] = run(tier="batch")
        assert runs["batch"][0].tier == "batch"
    return runs


# -- each pure integer expression once ------------------------------------------

ITEMS = 8

# One kernel per way a held temp could go stale or escape: the body,
# the C value of y[i], and the repeated expression's per-item code with
# how many times the per-item source computes it.
CSE_SCOPES = [
    pytest.param(
        "int a = i * 3; int b = a + 1; a = a + 2; y[i] = (a + 1) * 10 + b;",
        lambda i: (3 * i + 3) * 10 + 3 * i + 1,
        ("(v_a) + (1)", 2),
        id="reassigned-between-uses",
    ),
    pytest.param(
        "int a = i + 1; int r = 0; if (i > 3) { r = a * 5; } y[i] = r + a * 5;",
        lambda i: (2 if i > 3 else 1) * (i + 1) * 5,
        ("(v_a) * (5)", 2),
        id="made-in-an-if",
    ),
    pytest.param(
        "int s = 0; for (int k = 0; k < i; k++) { s = s + i * 2; }"
        " y[i] = s + i * 2;",
        lambda i: 2 * i * i + 2 * i,
        ("(v_i) * (2)", 2),
        id="made-in-a-loop-body",
    ),
    pytest.param(
        "int j = i; int acc = j * 3;"
        " for (int k = 0; k < 4; k++) { acc = acc + j * 3; j = j + 1; }"
        " y[i] = acc;",
        lambda i: 15 * i + 18,
        ("(v_j) * (3)", 2),
        id="loop-carried",
    ),
    pytest.param(
        "__local int t[8]; int l = get_local_id(0); t[l] = l * 2;"
        " barrier(CLK_LOCAL_MEM_FENCE); y[i] = t[7 - l] + l * 2;",
        lambda i: 14,
        ("(v_l) * (2)", 2),
        id="across-a-barrier",
    ),
    pytest.param(
        "int e = i * 7; int r = i > 3 ? i * 7 : 0;"
        " int s = (i > 5 && i * 7 > 40) ? 1 : 0; y[i] = e + r + s;",
        lambda i: i * 7 + (i * 7 if i > 3 else 0) + (i > 5 and i * 7 > 40),
        ("(v_i) * (7)", 3),
        id="lazy-arm-and-right-of-and",
    ),
]


@pytest.mark.parametrize("body,value,spelled", CSE_SCOPES)
def test_held_temps_keep_c_values(body, value, spelled):
    kernel = compiled(
        "__kernel void k(__global int* y) {{ int i = get_global_id(0); {} }}".format(
            body
        )
    )
    code, count = spelled
    assert kernel.source.count(code) == count
    runs = every_tier(
        kernel, lambda: ({"y": np.zeros(ITEMS, dtype=np.int32)}, {}), ITEMS, ITEMS
    )
    want = [value(i) for i in range(ITEMS)]
    for tier, (_trace, buffers) in runs.items():
        assert buffers["y"].tolist() == want, tier


# -- while loops test their condition every iteration ---------------------------

LOAD_IN_CONDITION = """
__kernel void k(__global float* y, __global const float* x) {
    int i = get_global_id(0);
    int k = 0;
    while (x[k] * (float)(8 - k) > 0.0f) k = k + 1;
    y[i] = k;
}
"""

PLAIN_LOAD_CONDITION = """
__kernel void k(__global float* y, __global const float* x) {
    int i = get_global_id(0);
    int k = 0;
    while (x[k] > 0.0f) k = k + 1;
    y[i] = k;
}
"""

COUNTED = """
__kernel void k(__global int* y, int n) {
    int i = get_global_id(0);
    int k = 0;
    while (k < n) { k = k + 1; }
    y[i] = k;
}
"""


def ones_then_zero(length=16):
    x = np.zeros(length, dtype=np.float32)
    x[:3] = 1.0
    return {"y": np.zeros(4, dtype=np.float32), "x": x}, {}


def test_plain_load_condition_terminates():
    # A watchdog-guarded launch first: a condition read once spins
    # until the deadline instead of stopping at k = 3.
    kernel = compiled(PLAIN_LOAD_CONDITION)
    guard = LaunchGuard(SanitizerConfig(deadline_ns=4000.0), "k")
    buffers, scalars = ones_then_zero()
    kernel.launch(buffers, scalars, 4, 4, guard=guard)
    assert buffers["y"].tolist() == [3.0] * 4
    for tier, (_trace, buffers) in every_tier(kernel, ones_then_zero, 4, 4).items():
        assert buffers["y"].tolist() == [3.0] * 4, tier


def test_load_in_condition_is_read_and_traced_every_test():
    # C: x[0..2] are 1 and x[3] is 0, so the loop stops at k = 3
    # whatever the (8 - k) factor; read once, x[0] * (8 - k) runs to 8.
    kernel = compiled(LOAD_IN_CONDITION)
    assert not kernel.batch_supported
    # site_meta: (space, elem_bytes, width, is_store, array)
    (site,) = [s for s, meta in kernel.site_meta.items() if not meta[3]]
    runs = every_tier(kernel, ones_then_zero, 4, 4)
    assert runs.keys() == {"per-item", "sanitized"}
    for tier, (trace, buffers) in runs.items():
        assert buffers["y"].tolist() == [3.0] * 4, tier
        # Four tests per item, the last one false.
        assert trace.sites[site].accesses == 16, tier
        lanes, indices = trace.sites[site].arrays()
        assert lanes.tolist() == [g for g in range(4) for _ in range(4)], tier
        assert indices.tolist() == [0, 1, 2, 3] * 4, tier


def test_load_in_condition_is_bounds_checked_every_test():
    # All ones: the fifth test reads x[4], past the end.
    kernel = compiled(LOAD_IN_CONDITION)
    buffers = {"y": np.zeros(4, dtype=np.float32), "x": np.ones(4, np.float32)}
    with pytest.raises(BoundsFault):
        kernel.launch(
            buffers, {}, 4, 4, guard=LaunchGuard(SanitizerConfig(), "k")
        )


@pytest.mark.parametrize("n", [1, 10, 100])
def test_while_test_is_charged_every_iteration(n):
    kernel = compiled(COUNTED)
    assert not kernel.batch_supported
    runs = every_tier(
        kernel, lambda: ({"y": np.zeros(4, dtype=np.int32)}, {"n": n}), 4, 4
    )
    assert runs.keys() == {"per-item", "sanitized"}
    for tier, (trace, buffers) in runs.items():
        assert buffers["y"].tolist() == [n] * 4, tier
    # Per item: n + 1 tests, each a `<` plus the loop's compare and
    # branch, and n bodies, each one add.
    want = dict.fromkeys(runs["per-item"][0].op_cycles, 0)
    want.update(int=4 * n, cmp=8 * (n + 1), branch=4 * (n + 1))
    for tier in ("per-item", "sanitized"):
        assert runs[tier][0].op_cycles == want, tier


# -- integer vector division truncates ------------------------------------------

VECTOR_DIVISION = """
__kernel void k(__global float* y, __global const int* x) {{
    int i = get_global_id(0);
    int4 a = vload4(i, x);
    float f = (a {} (int4)({})).x;
    y[i] = f * 2.0f;
}}
"""


@pytest.mark.parametrize(
    "op,divisor,lane,want",
    [
        ("/", 2, 7, 6.0),
        ("/", 2, -7, -6.0),
        ("%", -4, 7, 6.0),
        ("%", 4, -7, -6.0),
        # INT_MIN / -1 wraps to INT_MIN, as a scalar quotient does.
        ("/", -1, -(2**31), -(2.0**32)),
        ("%", -1, -(2**31), 0.0),
    ],
)
def test_integer_vector_division_truncates(op, divisor, lane, want):
    kernel = compiled(VECTOR_DIVISION.format(op, divisor))

    def args():
        x = np.full(16, lane, dtype=np.int32)
        return {"y": np.zeros(4, dtype=np.float32), "x": x}, {}

    runs = every_tier(kernel, args, 4, 4)
    assert runs.keys() == {"per-item", "sanitized"}
    for tier, (_trace, buffers) in runs.items():
        assert buffers["y"].tolist() == [want] * 4, tier


# -- lazy loads short-circuit ---------------------------------------------------

LAZY_LOAD = """
__kernel void k(__global int* y, __global const float* x, int n) {{
    int i = get_global_id(0);
    y[i] = {};
}}
"""


def four_of_eight():
    # x holds 4 elements and 8 items run: items 4..7 must skip the load.
    x = np.array([1.5, -2.0, 3.0, 0.0], dtype=np.float32)
    return {"y": np.zeros(8, dtype=np.int32), "x": x}, {"n": 4}


@pytest.mark.parametrize(
    "value,want",
    [
        ("(i < n && x[i] > 0.0f) ? 1 : 0", [1, 0, 1, 0, 0, 0, 0, 0]),
        ("i < n ? (int)x[i] : -1", [1, -2, 3, 0, -1, -1, -1, -1]),
    ],
    ids=["right-of-and", "select-arm"],
)
def test_skipped_load_is_neither_read_nor_traced_nor_checked(value, want):
    kernel = compiled(LAZY_LOAD.format(value))
    assert kernel.batch_reason == "memory access on a lazily-evaluated path"
    (site,) = [s for s, meta in kernel.site_meta.items() if not meta[3]]
    runs = every_tier(kernel, four_of_eight, 8, 4)
    assert runs.keys() == {"per-item", "sanitized"}
    buffers, scalars = four_of_eight()
    runs["auto"] = kernel.launch(buffers, scalars, 8, 4), buffers
    assert runs["auto"][0].tier == "per-item"
    for tier, (trace, buffers) in runs.items():
        assert buffers["y"].tolist() == want, tier
    # The sanitized launch raised no BoundsFault, and every traced
    # launch read x once per item below n.
    for tier in ("per-item", "sanitized", "auto"):
        lanes, indices = runs[tier][0].sites[site].arrays()
        assert lanes.tolist() == indices.tolist() == [0, 1, 2, 3], tier
