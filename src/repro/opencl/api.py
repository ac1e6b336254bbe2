"""An OpenCL-like host API over the simulator.

Mirrors the host-side workflow of Figure 1 in the paper: discover a
device, build a program from OpenCL C source, create buffers, set kernel
arguments, enqueue transfers and NDRange launches on a command queue.
The hand-tuned baseline benchmarks and the examples drive the simulator
through this API, which keeps them honest about setup and transfer
costs: the queue accounts every operation into simulated nanoseconds
using the same device/communication models the Lime runtime uses.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import DeviceError, TransferFault
from repro.opencl.clc import compile_opencl_source
from repro.opencl.device import DEVICES, get_device
from repro.opencl.executor import compile_kernel
from repro.opencl.timing import time_launch
from repro.runtime.profiler import CommCostModel

READ_ONLY = "r"
WRITE_ONLY = "w"
READ_WRITE = "rw"


class Platform:
    """The simulated OpenCL platform: one per process, four devices."""

    name = "repro simulated OpenCL"

    def get_devices(self):
        return [Device(model) for model in DEVICES.values()]

    def get_device(self, name):
        return Device(get_device(name))


class Device:
    def __init__(self, model):
        self.model = model

    @property
    def name(self):
        return self.model.name

    def __repr__(self):
        return "<Device {}>".format(self.name)


class Context:
    def __init__(self, device):
        if isinstance(device, str):
            device = Platform().get_device(device)
        self.device = device


class Buffer:
    """A device buffer: a flat NumPy array plus access flags."""

    def __init__(self, context, flags, nbytes=None, dtype=np.float32, hostbuf=None):
        self.context = context
        self.flags = flags
        if hostbuf is not None:
            self.array = np.ascontiguousarray(hostbuf).reshape(-1).copy()
        elif nbytes is not None:
            count = nbytes // np.dtype(dtype).itemsize
            self.array = np.zeros(count, dtype=dtype)
        else:
            raise DeviceError("Buffer requires nbytes or hostbuf")

    @property
    def nbytes(self):
        return self.array.nbytes


class Program:
    """OpenCL C program: building parses the source through the clc
    frontend into kernel IR and compiles it for the simulator."""

    def __init__(self, context, source):
        self.context = context
        self.source = source
        self.kernels = None

    def build(self):
        self.kernels = compile_opencl_source(self.source)
        return self

    def create_kernel(self, name):
        if self.kernels is None:
            raise DeviceError("program not built (call .build())")
        if name not in self.kernels:
            raise DeviceError(
                "no kernel '{}' in program (found: {})".format(
                    name, ", ".join(sorted(self.kernels))
                )
            )
        return Kernel(self.context, self.kernels[name])


class Kernel:
    def __init__(self, context, kernel_ir):
        self.context = context
        self.kernel_ir = kernel_ir
        self.compiled = compile_kernel(kernel_ir)
        self._args = {}

    def set_arg(self, index, value):
        params = self.kernel_ir.params
        if index >= len(params):
            raise DeviceError("argument index {} out of range".format(index))
        self._args[params[index].name] = value

    def set_args(self, *values):
        for index, value in enumerate(values):
            self.set_arg(index, value)

    def bound_arguments(self):
        buffers, scalars = {}, {}
        for param in self.kernel_ir.params:
            if param.name not in self._args:
                raise DeviceError("kernel argument '{}' not set".format(param.name))
            value = self._args[param.name]
            if param.is_pointer:
                if not isinstance(value, Buffer):
                    raise DeviceError(
                        "argument '{}' must be a Buffer".format(param.name)
                    )
                buffers[param.name] = value.array
            else:
                if isinstance(value, Buffer):
                    raise DeviceError(
                        "argument '{}' is a scalar, got a Buffer".format(
                            param.name
                        )
                    )
                scalars[param.name] = (
                    value.item() if isinstance(value, np.generic) else value
                )
        return buffers, scalars


class CommandQueue:
    """In-order command queue with simulated-time accounting.

    ``profile`` accumulates per-category nanoseconds:
    ``transfer`` (reads+writes), ``setup`` (API overhead), ``kernel``
    (device execution). ``events`` lists every operation in order.

    Hand-tuned baselines get the same fault model as the Lime runtime:
    pass an ``injector`` (:class:`repro.runtime.resilience.FaultInjector`)
    and every transfer is CRC-checked over the (possibly corrupted)
    wire — a flipped bit raises :class:`repro.errors.TransferFault` —
    while launches route through the injector's launch/OOM points.
    ``device_key`` names this queue's device for the injector's
    per-device specs and kill switch, one queue per fleet device.
    """

    def __init__(self, context, comm=None, injector=None, device_key=None):
        self.context = context
        self.comm = comm or CommCostModel()
        self.injector = injector
        self.device_key = device_key
        self.profile = {"transfer": 0.0, "setup": 0.0, "kernel": 0.0}
        self.events = []
        self.last_timing = None

    def _transmit(self, payload, direction, label):
        if self.injector is None:
            return payload
        sent_crc = zlib.crc32(payload)
        received = self.injector.transmit(
            payload, direction, label, device=self.device_key
        )
        if zlib.crc32(received) != sent_crc:
            raise TransferFault(
                "CRC mismatch on {} transfer for '{}'".format(direction, label)
            )
        return received

    def enqueue_write_buffer(self, buffer, data):
        flat = np.ascontiguousarray(data).reshape(-1)
        wire = self._transmit(flat.tobytes(), "h2d", "write_buffer")
        if self.injector is not None:
            flat = np.frombuffer(wire, dtype=flat.dtype)
        if flat.nbytes != buffer.array.nbytes:
            buffer.array = flat.copy()
        else:
            buffer.array[:] = flat
        ns = self.comm.transfer_ns(flat.nbytes)
        self.profile["transfer"] += ns
        self.events.append(("write", flat.nbytes, ns))

    def enqueue_read_buffer(self, buffer, out):
        flat = out.reshape(-1)
        wire = self._transmit(
            buffer.array[: flat.size].tobytes(), "d2h", "read_buffer"
        )
        if self.injector is not None:
            flat[:] = np.frombuffer(wire, dtype=buffer.array.dtype)[: flat.size]
        else:
            flat[:] = buffer.array[: flat.size]
        ns = self.comm.transfer_ns(flat.nbytes)
        self.profile["transfer"] += ns
        self.events.append(("read", flat.nbytes, ns))

    def enqueue_nd_range(self, kernel, global_size, local_size=None):
        device = self.context.device.model
        local_size = local_size or device.default_local_size
        buffers, scalars = kernel.bound_arguments()
        if self.injector is not None:
            self.injector.maybe_oom(
                kernel.kernel_ir.name,
                sum(buf.nbytes for buf in buffers.values()),
                device=self.device_key,
            )
        trace = kernel.compiled.launch(
            buffers,
            scalars,
            global_size,
            local_size,
            injector=self.injector,
            device=self.device_key,
            model=device,
        )
        timing = time_launch(trace, device)
        self.last_timing = timing
        self.profile["kernel"] += timing.kernel_ns
        setup = self.comm.setup_ns(buffers=len(buffers), launches=1)
        self.profile["setup"] += setup
        self.events.append(("ndrange", kernel.kernel_ir.name, timing.kernel_ns))
        return timing

    def finish(self):
        """In-order simulation: everything already ran; returns total
        simulated nanoseconds."""
        return sum(self.profile.values())
