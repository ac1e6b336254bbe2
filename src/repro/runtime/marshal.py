"""The host/device communication wire format (Figure 6 of the paper).

Offloading a filter moves its input from the JVM heap to the device and
its output back, through a *universal byte-stream wire format*:

    Lime value --(Java serializer)--> byte[] --(JNI)--> C value
    C value --(C serializer)--> byte[] --(JNI)--> Lime value

This module implements that format for primitives and (nested) arrays of
primitives — the cases the paper's OpenCL backend supports. Two encoder
implementations mirror the paper's story:

- :class:`GenericMarshaller` walks values element by element through the
  runtime type information, like the paper's first implementation, in
  which "more than 90% of the time was spent marshaling data".
- :class:`SpecializedMarshaller` installs the custom serializers the
  paper added for primitives and nested primitive arrays: whole-array
  bulk copies, with the recursive default marshaller dispatching to the
  specialization at the leaves.

Both produce identical bytes; they differ in the simulated cost they
report (a :class:`MarshalStats`), which feeds the Figure 9 breakdown and
the serializer ablation benchmark.

Wire format (little-endian):

``[tag:u8]`` then
  - scalars: ``[payload]`` of the primitive's width;
  - arrays: ``[rank:u8][dim0:u32]...[dimN:u32][payload]`` with the
    payload packed in row-major order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import MarshalError
from repro.frontend.types import ArrayType, PrimKind, PrimType
from repro.runtime import values as rv

_TAGS = {
    PrimKind.BOOLEAN: 1,
    PrimKind.BYTE: 2,
    PrimKind.INT: 3,
    PrimKind.LONG: 4,
    PrimKind.FLOAT: 5,
    PrimKind.DOUBLE: 6,
}
_ARRAY_TAG_BASE = 0x10

_SCALAR_PACK = {
    PrimKind.BOOLEAN: "<?",
    PrimKind.BYTE: "<b",
    PrimKind.INT: "<i",
    PrimKind.LONG: "<q",
    PrimKind.FLOAT: "<f",
    PrimKind.DOUBLE: "<d",
}


@dataclass
class MarshalStats:
    """Simulated-cost inputs gathered while encoding or decoding.

    ``elements`` counts per-element operations (each one pays bounds
    checks and boxing on the generic path); ``bulk_bytes`` counts bytes
    moved by bulk specialized copies; ``allocations`` counts heap
    allocations performed.
    """

    elements: int = 0
    bulk_bytes: int = 0
    byte_array_bytes: int = 0  # payload bytes of byte-element arrays
    allocations: int = 0
    payload_bytes: int = 0

    def add(self, other):
        self.elements += other.elements
        self.bulk_bytes += other.bulk_bytes
        self.byte_array_bytes += other.byte_array_bytes
        self.allocations += other.allocations
        self.payload_bytes += other.payload_bytes


def _base_prim(t):
    while isinstance(t, ArrayType):
        t = t.elem
    if not isinstance(t, PrimType) or t.kind not in _TAGS:
        raise MarshalError(
            "the wire format supports primitives and arrays of primitives, "
            "not {}".format(t)
        )
    return t


class _MarshallerBase:
    """Shared header/layout logic; subclasses choose the payload path."""

    def serialize(self, value, t):
        """Encode ``value`` of static type ``t``; returns ``(bytes, stats)``."""
        stats = MarshalStats()
        if isinstance(t, PrimType):
            if t.kind not in _SCALAR_PACK:
                raise MarshalError("cannot marshal a {} scalar".format(t))
            try:
                data = struct.pack("<B", _TAGS[t.kind]) + struct.pack(
                    _SCALAR_PACK[t.kind], value
                )
            except (struct.error, TypeError, OverflowError) as err:
                # OverflowError: struct raises it (not struct.error) for
                # doubles outside float32 range, e.g. pack("<f", 1e40).
                raise MarshalError(
                    "cannot marshal {!r} as a {} scalar: {}".format(
                        value, t, err
                    )
                ) from err
            stats.elements += 1
            stats.payload_bytes += len(data) - 1
            return data, stats
        if isinstance(t, ArrayType):
            base = _base_prim(t)
            try:
                arr = np.asarray(value)
            except ValueError as err:
                raise MarshalError(
                    "cannot marshal {!r} as {}: {}".format(value, t, err)
                ) from err
            if arr.ndim != t.rank:
                raise MarshalError(
                    "rank mismatch: value has {} dims, type {} has {}".format(
                        arr.ndim, t, t.rank
                    )
                )
            header = struct.pack(
                "<BB", _ARRAY_TAG_BASE + _TAGS[base.kind], arr.ndim
            )
            header += b"".join(struct.pack("<I", d) for d in arr.shape)
            try:
                payload = self._encode_payload(arr, base, stats)
            except (struct.error, TypeError, ValueError, OverflowError) as err:
                raise MarshalError(
                    "cannot encode a {} payload: {}".format(t, err)
                ) from err
            stats.payload_bytes += len(payload)
            return header + payload, stats
        raise MarshalError("cannot marshal a value of type {}".format(t))

    def deserialize(self, data, t):
        """Decode bytes into a value of static type ``t``; returns
        ``(value, stats)``. Value arrays come back frozen."""
        stats = MarshalStats()
        if isinstance(t, PrimType):
            if len(data) < 1:
                raise MarshalError(
                    "empty wire data (expected a {} scalar)".format(t)
                )
            tag = data[0]
            if tag != _TAGS.get(t.kind):
                raise MarshalError("wire tag {} does not match type {}".format(tag, t))
            try:
                value = struct.unpack_from(_SCALAR_PACK[t.kind], data, 1)[0]
            except struct.error as err:
                raise MarshalError(
                    "truncated wire data for a {} scalar ({} bytes): "
                    "{}".format(t, len(data), err)
                ) from err
            stats.elements += 1
            if t.is_floating:
                value = float(value)
            elif t.kind is not PrimKind.BOOLEAN:
                value = int(value)
            return value, stats
        if isinstance(t, ArrayType):
            base = _base_prim(t)
            try:
                tag, rank = struct.unpack_from("<BB", data, 0)
            except struct.error as err:
                raise MarshalError(
                    "truncated wire header for array type {} ({} "
                    "bytes)".format(t, len(data))
                ) from err
            if tag != _ARRAY_TAG_BASE + _TAGS[base.kind]:
                raise MarshalError(
                    "wire tag {} does not match array type {}".format(tag, t)
                )
            if rank != t.rank:
                raise MarshalError(
                    "wire rank {} does not match array type {}".format(rank, t)
                )
            try:
                shape = struct.unpack_from("<{}I".format(rank), data, 2)
            except struct.error as err:
                raise MarshalError(
                    "truncated wire shape for array type {} ({} "
                    "bytes)".format(t, len(data))
                ) from err
            self._check_bounds(t, shape)
            offset = 2 + 4 * rank
            try:
                arr = self._decode_payload(data, offset, shape, base, stats)
            except (struct.error, ValueError, IndexError) as err:
                raise MarshalError(
                    "truncated or malformed wire payload for array type "
                    "{}: {}".format(t, err)
                ) from err
            stats.allocations += 1
            if t.is_value():
                arr.setflags(write=False)
            return arr, stats
        raise MarshalError("cannot unmarshal a value of type {}".format(t))

    @staticmethod
    def _check_bounds(t, shape):
        expected = t.dims()
        for dim, (bound, actual) in enumerate(zip(expected, shape)):
            if bound is not None and bound != actual:
                raise MarshalError(
                    "dimension {} has {} elements but the type {} bounds "
                    "it to {}".format(dim, actual, t, bound)
                )

    def _encode_payload(self, arr, base, stats):
        raise NotImplementedError

    def _decode_payload(self, data, offset, shape, base, stats):
        raise NotImplementedError


class SpecializedMarshaller(_MarshallerBase):
    """Bulk array copies — the paper's custom serializers.

    Because Lime arrays can carry bounds, the target byte-array size is
    known up front and the whole payload moves with one copy per array.
    """

    def _encode_payload(self, arr, base, stats):
        contiguous = np.ascontiguousarray(arr, dtype=rv.dtype_for(base))
        payload = contiguous.tobytes()
        stats.bulk_bytes += len(payload)
        if rv.elem_size_bytes(base) == 1:
            stats.byte_array_bytes += len(payload)
        stats.allocations += 1
        return payload

    def _decode_payload(self, data, offset, shape, base, stats):
        dtype = rv.dtype_for(base)
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * np.dtype(dtype).itemsize
        flat = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
        stats.bulk_bytes += nbytes
        if np.dtype(dtype).itemsize == 1:
            stats.byte_array_bytes += nbytes
        return flat.reshape(shape).copy()


class GenericMarshaller(_MarshallerBase):
    """Element-at-a-time encoding through runtime type information — the
    paper's unoptimized default marshaller. Produces the same bytes as
    the specialized path but charges a per-element cost."""

    def _encode_payload(self, arr, base, stats):
        pack = _SCALAR_PACK[base.kind]
        parts = []
        for element in np.asarray(arr).reshape(-1):
            parts.append(struct.pack(pack, element))
            stats.elements += 1
        stats.allocations += max(1, arr.ndim)
        return b"".join(parts)

    def _decode_payload(self, data, offset, shape, base, stats):
        pack = _SCALAR_PACK[base.kind]
        width = struct.calcsize(pack)
        count = int(np.prod(shape)) if shape else 1
        out = np.empty(count, dtype=rv.dtype_for(base))
        for i in range(count):
            out[i] = struct.unpack_from(pack, data, offset + i * width)[0]
            stats.elements += 1
        stats.allocations += max(1, len(shape))
        return out.reshape(shape)


# Module-level defaults.
SPECIALIZED = SpecializedMarshaller()
GENERIC = GenericMarshaller()


def serialize(value, t, marshaller=SPECIALIZED):
    return marshaller.serialize(value, t)


def deserialize(data, t, marshaller=SPECIALIZED):
    return marshaller.deserialize(data, t)


# -- device-resident boundary elision (docs/FUSION.md) -----------------------
#
# Under ``--fuse resident|kernel`` the graph-level buffer planner marks
# legal ``=>`` seams so the producer's output buffer stays on its device.
# The producer still runs the serialize -> deserialize round trip (the
# wire format is the canonical value representation, so the host keeps a
# bit-exact mirror and results cannot change) but charges *nothing* for
# the d2h leg; instead the charges it would have paid are precomputed
# into a :class:`ResidentMeta` riding on the value. Whoever forces the
# value back to host-authoritative form — a fused consumer on another
# device, a failover re-marshal, the host-interpreter fallback, or
# differential validation — pays the deferred bill exactly once
# (``meta.settled``). A consumer on the *same* device elides its whole
# inbound path for that parameter and the two skipped bus crossings are
# counted under ``transfer.bytes_saved``.


class ResidentArray(np.ndarray):
    """A frozen ndarray whose authoritative copy lives on a device.

    Plain ndarray semantics everywhere — any view, copy, or arithmetic
    result is an ordinary array again (``__array_finalize__`` drops the
    meta), so only the exact object the producer returned carries the
    device residency."""

    _resident = None

    def __array_finalize__(self, obj):
        # Deliberately do NOT propagate _resident from `obj`: a slice
        # of a resident value is host data, not a device buffer. (The
        # meta also never pickles — ndarray's reduce protocol carries
        # only the class and the data, so a round-tripped value wakes
        # up with the class default of None.)
        self._resident = getattr(self, "_resident", None)


@dataclass
class ResidentMeta:
    """The deferred d2h bill and placement of a device-resident value.

    ``stats`` is the producer-side :class:`MarshalStats` of the output
    wire; a consumer that must re-marshal (failover to another device)
    re-prices the h2d leg with its *own* comm model from these stats.
    ``d2h_*_ns`` are the producer's precomputed outbound charges
    (``d2h_c_ns`` is zero under direct-to-device marshalling).
    ``settled`` flips exactly once, when the deferred bill is paid.
    """

    producer: str
    device_key: object
    payload_bytes: int
    stats: MarshalStats
    d2h_c_ns: float
    d2h_j_ns: float
    d2h_t_ns: float
    settled: bool = False


def make_resident(value, meta):
    """Wrap a (frozen) array value as device-resident."""
    arr = np.asarray(value).view(ResidentArray)
    arr.setflags(write=False)
    arr._resident = meta
    return arr


def resident_meta(value):
    """The :class:`ResidentMeta` of ``value``, or None for host data."""
    return getattr(value, "_resident", None)


def settle_resident_meta(meta, profile, reason="host"):
    """Pay the deferred d2h bill of a resident value, once.

    Charges the producer's withheld ``c_marshal``/``java_marshal``/
    ``transfer`` stage time (advancing the active clock) and the d2h
    byte counters, then marks the meta settled. Idempotent: a second
    settlement is a no-op, so the validation path, the host-fallback
    path, and failover can all call it unconditionally.
    """
    if meta is None or meta.settled:
        return False
    meta.settled = True
    from repro.runtime.cost import StageTimes

    tracer = profile.tracer
    delta = StageTimes()
    if meta.d2h_c_ns:
        delta.c_marshal = meta.d2h_c_ns
        tracer.charge(
            "c_marshal", meta.d2h_c_ns, cat="stage", direction="d2h",
            task=meta.producer, resident_settle=reason,
        )
    delta.java_marshal = meta.d2h_j_ns
    tracer.charge(
        "java_marshal", meta.d2h_j_ns, cat="stage", direction="d2h",
        task=meta.producer, resident_settle=reason,
    )
    delta.transfer = meta.d2h_t_ns
    tracer.charge(
        "transfer", meta.d2h_t_ns, cat="stage", direction="d2h",
        bytes=meta.payload_bytes, task=meta.producer,
        resident_settle=reason,
    )
    # Add to the producer's stage totals directly (not via
    # profile.record, which would also log a phantom per-item invoke).
    profile.stages.add(delta)
    profile.task_stages(meta.producer).add(delta)
    profile.metrics.inc(
        "transfer.bytes_from_device", meta.payload_bytes
    )
    profile.metrics.inc("fusion.rematerialized")
    tracer.instant(
        "resident_settle", cat="fusion", task=meta.producer,
        reason=reason, bytes=meta.payload_bytes,
    )
    return True


def settle_resident(value, profile, reason="host"):
    """Settle ``value``'s deferred d2h bill if it is device-resident."""
    return settle_resident_meta(resident_meta(value), profile, reason)
