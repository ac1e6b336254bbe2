"""Executor tests: NDRange semantics, barriers, traces."""

import numpy as np
import pytest

from repro.backend import kernel_ir as K
from repro.errors import DeviceError
from repro.opencl.executor import compile_kernel

I, F = K.K_INT, K.K_FLOAT


def saxpy_kernel():
    gid = K.KCall("get_global_id", [], I)
    gsz = K.KCall("get_global_size", [], I)
    i = K.KVar("i", I)
    body = [
        K.KFor(
            "i",
            gid,
            K.KVar("n", I),
            gsz,
            [
                K.KStore(
                    "out",
                    i,
                    K.KBin(
                        "+",
                        K.KBin("*", K.KVar("a", F), K.KLoad("x", i, K.Space.GLOBAL, F), F),
                        K.KLoad("y", i, K.Space.GLOBAL, F),
                        F,
                    ),
                    K.Space.GLOBAL,
                    F,
                )
            ],
        )
    ]
    return K.Kernel(
        name="saxpy",
        params=[
            K.KParam("x", F, K.Space.GLOBAL, is_pointer=True, read_only=True),
            K.KParam("y", F, K.Space.GLOBAL, is_pointer=True, read_only=True),
            K.KParam("out", F, K.Space.GLOBAL, is_pointer=True),
            K.KParam("a", F),
            K.KParam("n", I),
        ],
        arrays=[],
        body=body,
    )


def test_saxpy_computes():
    ck = compile_kernel(saxpy_kernel())
    x = np.arange(10, dtype=np.float32)
    y = np.ones(10, dtype=np.float32)
    out = np.zeros(10, dtype=np.float32)
    ck.launch({"x": x, "y": y, "out": out}, {"a": 3.0, "n": 10}, 8, 4)
    assert np.allclose(out, 3.0 * x + 1.0)


def test_robust_loop_covers_any_ndrange():
    """Figure 4's claim: correct independent of the thread count."""
    ck = compile_kernel(saxpy_kernel())
    x = np.arange(13, dtype=np.float32)
    y = np.zeros(13, dtype=np.float32)
    for global_size, local in [(4, 2), (16, 16), (8, 8)]:
        out = np.zeros(13, dtype=np.float32)
        ck.launch({"x": x, "y": y, "out": out}, {"a": 1.0, "n": 13}, global_size, local)
        assert np.allclose(out, x), (global_size, local)


def test_trace_counts_ops_and_sites():
    ck = compile_kernel(saxpy_kernel())
    x = np.zeros(6, dtype=np.float32)
    out = np.zeros(6, dtype=np.float32)
    trace = ck.launch({"x": x, "y": x, "out": out}, {"a": 1.0, "n": 6}, 6, 2)
    assert trace.op_cycles["fp"] == 12  # mul + add per element
    sites = list(trace.sites.values())
    assert len(sites) == 3
    assert all(s.accesses == 6 for s in sites)


def test_missing_buffer_raises():
    ck = compile_kernel(saxpy_kernel())
    with pytest.raises(DeviceError):
        ck.launch({"x": np.zeros(1, np.float32)}, {"a": 1.0, "n": 1}, 2, 2)


def test_bad_ndrange_raises():
    ck = compile_kernel(saxpy_kernel())
    buffers = {
        "x": np.zeros(4, np.float32),
        "y": np.zeros(4, np.float32),
        "out": np.zeros(4, np.float32),
    }
    with pytest.raises(DeviceError):
        ck.launch(buffers, {"a": 1.0, "n": 4}, 6, 4)  # 6 % 4 != 0


def barrier_kernel():
    """Each item writes its lid into local memory; after the barrier it
    reads its neighbor's slot — fails without correct barrier phasing."""
    lid = K.KCall("get_local_id", [], I)
    lsz = K.KCall("get_local_size", [], I)
    gid = K.KCall("get_global_id", [], I)
    neighbor = K.KBin(
        "%", K.KBin("+", lid, K.KConst(1, I), I), lsz, I
    )
    body = [
        K.KDecl("lid", I, lid),
        K.KStore("scratch", K.KVar("lid", I), K.KVar("lid", I), K.Space.LOCAL, I),
        K.KBarrier(),
        K.KStore(
            "out",
            gid,
            K.KLoad("scratch", neighbor, K.Space.LOCAL, I),
            K.Space.GLOBAL,
            I,
        ),
    ]
    return K.Kernel(
        name="nb",
        params=[K.KParam("out", I, K.Space.GLOBAL, is_pointer=True)],
        arrays=[K.KLocalArray("scratch", I, -1, K.Space.LOCAL, row=1)],
        body=body,
    )


def test_barrier_synchronizes_work_group():
    ck = compile_kernel(barrier_kernel())
    out = np.zeros(8, dtype=np.int32)
    trace = ck.launch({"out": out}, {}, 8, 4)
    assert list(out) == [1, 2, 3, 0, 1, 2, 3, 0]
    assert trace.barriers >= 1


def test_local_memory_isolated_between_groups():
    ck = compile_kernel(barrier_kernel())
    out = np.zeros(8, dtype=np.int32)
    ck.launch({"out": out}, {}, 8, 2)
    assert list(out) == [1, 0, 1, 0, 1, 0, 1, 0]


def test_int_wrapping_in_kernel():
    body = [
        K.KStore(
            "out",
            K.KConst(0, I),
            K.KBin("*", K.KConst(65536, I), K.KConst(65536, I), I),
            K.Space.GLOBAL,
            I,
        )
    ]
    kernel = K.Kernel(
        "wrap", [K.KParam("out", I, K.Space.GLOBAL, is_pointer=True)], [], body
    )
    out = np.zeros(1, dtype=np.int32)
    compile_kernel(kernel).launch({"out": out}, {}, 1, 1)
    assert out[0] == 0  # 2^32 wraps to 0


def test_long_arithmetic_not_truncated():
    L = K.K_LONG
    body = [
        K.KStore(
            "out",
            K.KConst(0, I),
            K.KBin("%", K.KBin("*", K.KVar("a", L), K.KVar("a", L), L), K.KConst(65537, L), L),
            K.Space.GLOBAL,
            L,
        )
    ]
    kernel = K.Kernel(
        "lmul",
        [K.KParam("out", L, K.Space.GLOBAL, is_pointer=True), K.KParam("a", L)],
        [],
        body,
    )
    out = np.zeros(1, dtype=np.int64)
    compile_kernel(kernel).launch({"out": out}, {"a": 65536}, 1, 1)
    assert out[0] == (65536 * 65536) % 65537


def test_vector_load_store():
    vec = K.KVector(F, 4)
    gid = K.KCall("get_global_id", [], I)
    body = [
        K.KDecl("v", vec, K.KLoad("x", gid, K.Space.GLOBAL, vec)),
        K.KStore(
            "out",
            gid,
            K.KVecExtract(K.KVar("v", vec), 3, F),
            K.Space.GLOBAL,
            F,
        ),
    ]
    kernel = K.Kernel(
        "v4",
        [
            K.KParam("x", F, K.Space.GLOBAL, is_pointer=True, read_only=True),
            K.KParam("out", F, K.Space.GLOBAL, is_pointer=True),
        ],
        [],
        body,
    )
    x = np.arange(8, dtype=np.float32)
    out = np.zeros(2, dtype=np.float32)
    compile_kernel(kernel).launch({"x": x, "out": out}, {}, 2, 2)
    assert list(out) == [3.0, 7.0]


def test_float_stores_round_to_float32():
    body = [
        K.KStore(
            "out", K.KConst(0, I), K.KConst(0.1, K.K_DOUBLE), K.Space.GLOBAL, F
        )
    ]
    kernel = K.Kernel(
        "rnd", [K.KParam("out", F, K.Space.GLOBAL, is_pointer=True)], [], body
    )
    out = np.zeros(1, dtype=np.float32)
    compile_kernel(kernel).launch({"out": out}, {}, 1, 1)
    assert out[0] == np.float32(0.1)


@pytest.mark.parametrize(
    "dtype", [np.bool_, np.int8, np.int32, np.int64, np.float32, np.float64]
)
def test_item_accessor_matches_indexed_item(dtype):
    """Generated per-item code reads a scalar as ``memoryview(a)[i]``
    and a vector lane from ``a.tolist()``, and the batch runtime's
    scalar branches and lane extracts as ``a.item(i)``: all must give
    the value and Python type ``a[i].item()`` gives, and fail the same
    way."""
    if np.dtype(dtype).kind == "f":
        values = [0.0, -0.0, 1.5, -2.25, np.nan, -np.nan, np.inf, -np.inf, 3e38]
    elif dtype is np.bool_:
        values = [True, False, True]
    else:
        info = np.iinfo(dtype)
        values = [0, -1, 1, int(info.min), int(info.max), 7]
    a = np.array(values, dtype=dtype)
    view = memoryview(a)
    lanes = a.tolist()
    n = len(a)
    for i in range(-n, n):
        want = a[i].item()
        for got in (a.item(i), view[i], lanes[i]):
            assert type(got) is type(want)
            if isinstance(want, float):
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
            else:
                assert got == want
    for i in (-n - 1, n):
        with pytest.raises(IndexError):
            a.item(i)
        with pytest.raises(IndexError):
            view[i]
        with pytest.raises(IndexError):
            lanes[i]
        with pytest.raises(IndexError):
            a[i].item()
