"""Kernels and arguments the launch-shape and launch-reuse suites share
(``test_launch_shape.py``, ``test_launch_reuse.py``): a one-kernel
compile, two small kernels, the golden OpenCL-C snapshots, and one
launch shape with random buffer contents any kernel accepts."""

import pathlib

import numpy as np

from repro.backend import kernel_ir as K
from repro.opencl.clc import compile_opencl_source

GOLDEN_SOURCES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "golden").glob("*.cl")
)

# A gather: what the launch records follows the contents of idx.
GATHER = """
__kernel void k(__global float* y, __global const int* idx,
                __global const float* x) {
    int i = get_global_id(0);
    y[i] = x[idx[i]];
}
"""

AXPB = """
__kernel void k(__global float* y, __global const float* x, float a, int b) {
    int i = get_global_id(0);
    y[i] = a * x[i] + (float)b;
}
"""


def kernel(source):
    (ir,) = compile_opencl_source(source).values()
    return ir


# One launch shape for every kernel: 40 items on 32 lanes in work-groups
# of 16, every ``_len_<array>`` scalar 24, and room for 64 elements per
# item in every buffer.
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
