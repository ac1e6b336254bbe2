"""Content-addressed compilation cache for kernel IR.

``compile_filter`` rebuilds kernel IR from scratch for every stream
task, every :class:`Offloader` and every fleet device, so without a
cache the simulator re-runs codegen (IR -> Python source -> ``exec``)
for kernels it has already compiled. The cache keys compiled artifacts
by *content*:

    (IR fingerprint, DISK_ARTIFACT_VERSION)

- The **fingerprint** is a SHA-256 over ``repr(kernel)``, which prints
  the IR dataclasses structurally (params, in-kernel arrays,
  statements, types). Site ids and the free-form ``meta`` dict are
  ``repr=False``: sites are derived deterministically from the
  structure, and ``meta`` is consumed by the host glue, not by codegen.
- Nothing else is in the key, because :class:`CompiledKernel` reads
  nothing but the IR. Compiler options and the device reach codegen
  only through the IR, since the memory plan is part of it. The
  sanitized variant is generated from the same IR on the first guarded
  launch, and the launch's ``LaunchGuard`` carries the sanitizer
  config. So a fleet compiles each distinct IR once, whatever the
  device, options or sanitizer. ``tests/opencl/test_kernel_cache_key.py``
  derives this instead of asserting it: it compiles every app's
  kernels under every device, option set and sanitizer, and requires
  byte-identical artifacts wherever the fingerprints agree.
- ``DISK_ARTIFACT_VERSION`` names the generated-source format, so a
  store written by another version is a plain miss.

The cache is bounded (LRU) and module-global: hit/miss counts are
exposed both globally and per :class:`ExecutionProfile` via the
``profile`` argument of :func:`cached_compile_kernel`.

The LRU can additionally be backed by a content-addressed **on-disk
store** (:class:`DiskKernelStore`) keyed by the *same* tuple, so a
restarted process recompiles nothing: lookups miss the in-memory LRU,
load the pickled :meth:`CompiledKernel.artifact` from disk, and count
as ``cache.disk_hits`` (codegen never runs). Enable it with
:func:`configure_disk_store`, the ``REPRO_KERNEL_CACHE_DIR``
environment variable, or ``repro run --kernel-cache DIR`` (``--journal
DIR`` defaults it to ``DIR/kernels``). Artifacts are written with
:func:`repro.ioutil.atomic_write`; a torn or unpicklable artifact is a
cache miss, never an error.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict

from repro.ioutil import atomic_write
from repro.opencl.executor import DISK_ARTIFACT_VERSION, CompiledKernel
from repro.runtime.tracing import NULL_TRACER

DEFAULT_CAPACITY = 128

KERNEL_CACHE_DIR_ENV = "REPRO_KERNEL_CACHE_DIR"


def kernel_fingerprint(kernel):
    """Deterministic SHA-256 hex digest of a kernel's compiled content."""
    return hashlib.sha256(repr(kernel).encode("utf-8")).hexdigest()


class DiskKernelStore:
    """Content-addressed on-disk store of pickled
    :meth:`CompiledKernel.artifact` snapshots.

    Filenames are the SHA-256 of the cache key, so one directory holds
    one artifact per distinct kernel IR, shared by every device, option
    set and sanitizer setting that lowers to it. Writes go through
    :func:`repro.ioutil.atomic_write`; loads treat *any* failure —
    missing file, torn pickle, version or key mismatch — as a miss and
    count it in :attr:`corrupt` when the file existed but could not be
    trusted.
    """

    def __init__(self, root):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.loads = 0
        self.stores = 0
        self.corrupt = 0

    def _path(self, key):
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
        return os.path.join(self.root, digest + ".kpkl")

    def load(self, key):
        """The stored :class:`CompiledKernel` for ``key``, or None."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            self.corrupt += 1
            return None
        try:
            if payload.get("key") != list(key):
                raise ValueError("key mismatch")
            entry = CompiledKernel.from_artifact(payload["artifact"])
        except Exception:
            self.corrupt += 1
            return None
        self.loads += 1
        return entry

    def store(self, key, compiled):
        payload = {
            "key": list(key),
            "artifact": compiled.artifact(),
        }
        atomic_write(self._path(key), pickle.dumps(payload))
        self.stores += 1


_DISK_STORE = None
_DISK_STORE_CONFIGURED = False


def configure_disk_store(root):
    """Set (or with None, clear) the process-wide on-disk kernel store.

    Overrides the ``REPRO_KERNEL_CACHE_DIR`` environment variable.
    """
    global _DISK_STORE, _DISK_STORE_CONFIGURED
    if root is None:
        _DISK_STORE = None
        _DISK_STORE_CONFIGURED = False
    else:
        _DISK_STORE = DiskKernelStore(root)
        _DISK_STORE_CONFIGURED = True
    return _DISK_STORE


def active_disk_store():
    """The configured store, else one resolved from the environment."""
    global _DISK_STORE
    if _DISK_STORE_CONFIGURED:
        return _DISK_STORE
    env = os.environ.get(KERNEL_CACHE_DIR_ENV)
    if not env:
        return None
    if _DISK_STORE is None or os.fspath(_DISK_STORE.root) != env:
        _DISK_STORE = DiskKernelStore(env)
    return _DISK_STORE


class KernelCache:
    """Bounded LRU cache of :class:`CompiledKernel` artifacts."""

    def __init__(self, capacity=DEFAULT_CAPACITY):
        self.capacity = capacity
        self._entries = OrderedDict()
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.evictions = 0
        # The cache is shared by every concurrent serving session; one
        # lock covers the LRU mutation *and* the compile-on-miss, so
        # two sessions missing on the same kernel serialize (the
        # second one hits) instead of compiling twice or corrupting
        # the OrderedDict.
        self._lock = threading.RLock()

    def __len__(self):
        return len(self._entries)

    def lookup(self, kernel, store=None):
        """Resolve ``kernel`` to a compiled entry (thread-safe).

        Returns ``(entry, kind)`` where kind is ``"hit"`` (in-memory
        LRU), ``"disk"`` (loaded from ``store`` — no codegen ran), or
        ``"miss"`` (codegen ran; the result is saved to ``store`` when
        one is given).
        """
        key = (kernel_fingerprint(kernel), DISK_ARTIFACT_VERSION)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry, "hit"
            kind = "miss"
            if store is not None:
                entry = store.load(key)
                if entry is not None:
                    kind = "disk"
                    self.disk_hits += 1
            if entry is None:
                self.misses += 1
                entry = CompiledKernel(kernel)
                if store is not None:
                    store.store(key, entry)
            self._entries[key] = entry
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            return entry, kind

    def clear(self):
        self._entries.clear()

    def stats(self):
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
        }


_GLOBAL_CACHE = KernelCache()


def global_kernel_cache():
    return _GLOBAL_CACHE


def reset_global_cache():
    """Drop all entries and zero the counters (test isolation)."""
    global _GLOBAL_CACHE
    _GLOBAL_CACHE = KernelCache()
    return _GLOBAL_CACHE


# Lookup kind -> the run's counter it bumps.
_CACHE_COUNTERS = {
    "hit": "cache.hits",
    "disk": "cache.disk_hits",
    "miss": "cache.misses",
}


def cached_compile_kernel(kernel, profile=None):
    """Compile ``kernel`` through the global cache.

    ``profile`` (an :class:`repro.runtime.profiler.ExecutionProfile`)
    gets its run's ``cache.*`` counter bumped when provided, and its
    tracer records a "cache_lookup" span (wall time covers codegen on a
    miss) plus a hit/miss instant.
    """
    tracer = profile.tracer if profile is not None else NULL_TRACER
    store = active_disk_store()
    with tracer.span("cache_lookup", cat="compile", kernel=kernel.name) as sp:
        compiled, kind = _GLOBAL_CACHE.lookup(kernel, store=store)
        sp.set(hit=kind != "miss", kind=kind)
    tracer.instant(
        "cache_hit" if kind != "miss" else "cache_miss",
        cat="compile",
        kernel=kernel.name,
    )
    if profile is not None:
        profile.metrics.inc(_CACHE_COUNTERS[kind])
    return compiled
