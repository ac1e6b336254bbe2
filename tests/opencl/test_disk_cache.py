"""The content-addressed on-disk kernel store.

The acceptance bar: a restarted process (simulated by dropping the
in-memory LRU) must recompile *nothing* — every kernel comes back via
``CompiledKernel.from_artifact`` with the codegen counter untouched —
and a corrupt or mismatched artifact is a counted cache miss, never an
error or a silently wrong kernel.
"""

import os
import pickle

import numpy as np
import pytest

from repro.compiler.pipeline import compile_filter
from repro.frontend import check_program, parse_program
from repro.opencl import get_device
from repro.opencl import kernel_cache as kc
from repro.opencl.executor import (
    DISK_ARTIFACT_VERSION,
    CompiledKernel,
    codegen_compiles,
)
from repro.opencl.kernel_cache import (
    DiskKernelStore,
    KernelCache,
    configure_disk_store,
    kernel_fingerprint,
)
from repro.runtime.profiler import ExecutionProfile

from tests.conftest import SAXPY_SOURCE
from tests.opencl.test_kernel_cache import make_kernel


@pytest.fixture(autouse=True)
def clean_store():
    yield
    configure_disk_store(None)
    kc.reset_global_cache()


def key_for(kernel):
    return (kernel_fingerprint(kernel), DISK_ARTIFACT_VERSION)


def launch_sum(compiled, n=8):
    out = np.zeros(n, dtype=np.int32)
    compiled.launch({"out": out}, {}, n, n)
    return out


# -- artifact round-trip -----------------------------------------------------


def test_artifact_round_trip_runs_without_codegen():
    compiled = CompiledKernel(make_kernel())
    expected = launch_sum(compiled)
    artifact = compiled.artifact()
    before = codegen_compiles()
    restored = CompiledKernel.from_artifact(artifact)
    assert codegen_compiles() == before  # no codegen on restore
    assert np.array_equal(launch_sum(restored), expected)
    assert restored.batch_supported == compiled.batch_supported


def test_artifact_is_picklable():
    compiled = CompiledKernel(make_kernel())
    blob = pickle.dumps(compiled.artifact())
    restored = CompiledKernel.from_artifact(pickle.loads(blob))
    assert np.array_equal(launch_sum(restored), launch_sum(compiled))


def test_artifact_version_mismatch_is_rejected():
    artifact = CompiledKernel(make_kernel()).artifact()
    artifact["version"] = DISK_ARTIFACT_VERSION + 1
    with pytest.raises(ValueError, match="version"):
        CompiledKernel.from_artifact(artifact)


# -- DiskKernelStore ---------------------------------------------------------


class TestDiskKernelStore:
    def test_store_then_load(self, tmp_path):
        store = DiskKernelStore(tmp_path)
        kernel = make_kernel()
        compiled = CompiledKernel(kernel)
        store.store(key_for(kernel), compiled)
        assert store.stores == 1
        loaded = store.load(key_for(kernel))
        assert loaded is not None
        assert store.loads == 1
        assert np.array_equal(launch_sum(loaded), launch_sum(compiled))

    def test_missing_key_is_none_not_corrupt(self, tmp_path):
        store = DiskKernelStore(tmp_path)
        assert store.load(key_for(make_kernel())) is None
        assert store.corrupt == 0

    def test_torn_artifact_is_a_counted_miss(self, tmp_path):
        store = DiskKernelStore(tmp_path)
        kernel = make_kernel()
        store.store(key_for(kernel), CompiledKernel(kernel))
        path = store._path(key_for(kernel))
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])  # torn mid-pickle
        assert store.load(key_for(kernel)) is None
        assert store.corrupt == 1

    def test_key_mismatch_inside_payload_is_corrupt(self, tmp_path):
        # A payload whose embedded key disagrees with its filename
        # (e.g. a hand-copied artifact) must never be served.
        store = DiskKernelStore(tmp_path)
        kernel = make_kernel()
        store.store(key_for(kernel), CompiledKernel(kernel))
        src = store._path(key_for(kernel))
        other = make_kernel(const=2)
        os.rename(src, store._path(key_for(other)))
        assert store.load(key_for(other)) is None
        assert store.corrupt == 1

    def test_second_device_is_served_the_first_devices_artifact(
        self, tmp_path
    ):
        # A fresh process compiling for another device loads what the
        # first device's compile stored: the device is not in the key.
        configure_disk_store(tmp_path)
        checked = check_program(parse_program(SAXPY_SOURCE))
        worker = checked.lookup_method("Saxpy", "apply")
        compile_filter(checked, worker, device=get_device("gtx580"))
        kc.reset_global_cache()
        before = codegen_compiles()
        profile = ExecutionProfile()
        compile_filter(
            checked, worker, device=get_device("hd5970"), profile=profile
        )
        assert (profile.cache_disk_hits, profile.cache_misses) == (1, 0)
        assert codegen_compiles() == before
        assert len(os.listdir(tmp_path)) == 1

    def test_another_artifact_version_is_a_plain_miss(self, tmp_path,
                                                      monkeypatch):
        # A store written under another generated-source format has
        # other filenames: the lookup misses and recompiles, and
        # nothing counts as corrupt.
        store = DiskKernelStore(tmp_path)
        monkeypatch.setattr(kc, "DISK_ARTIFACT_VERSION",
                            DISK_ARTIFACT_VERSION + 1)
        KernelCache().lookup(make_kernel(), store=store)
        monkeypatch.undo()
        _, kind = KernelCache().lookup(make_kernel(), store=store)
        assert kind == "miss"
        assert store.corrupt == 0
        assert len(os.listdir(tmp_path)) == 2


# -- KernelCache x disk store ------------------------------------------------


class TestCacheWithStore:
    def test_disk_hit_is_not_a_miss(self, tmp_path):
        store = DiskKernelStore(tmp_path)
        warm = KernelCache()
        warm.lookup(make_kernel(), store=store)
        assert warm.stats()["misses"] == 1

        # A "restarted process": fresh LRU, same store.
        cold = KernelCache()
        before = codegen_compiles()
        _, kind = cold.lookup(make_kernel(), store=store)
        assert kind == "disk"
        assert codegen_compiles() == before
        assert cold.stats() == {
            "hits": 0,
            "disk_hits": 1,
            "misses": 0,
            "evictions": 0,
            "entries": 1,
        }
        # Second lookup is an ordinary in-memory hit.
        _, kind = cold.lookup(make_kernel(), store=store)
        assert kind == "hit"

    def test_miss_populates_the_store(self, tmp_path):
        store = DiskKernelStore(tmp_path)
        cache = KernelCache()
        _, kind = cache.lookup(make_kernel(), store=store)
        assert kind == "miss"
        assert store.stores == 1
        assert os.listdir(tmp_path)

    def test_no_store_means_plain_miss(self):
        cache = KernelCache()
        _, kind = cache.lookup(make_kernel())
        assert kind == "miss"
        assert cache.stats()["disk_hits"] == 0


# -- configuration -----------------------------------------------------------


class TestConfiguration:
    def test_configure_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(kc.KERNEL_CACHE_DIR_ENV, os.fspath(tmp_path / "env"))
        store = configure_disk_store(tmp_path / "explicit")
        assert kc.active_disk_store() is store
        assert os.fspath(store.root) == os.fspath(tmp_path / "explicit")

    def test_configure_none_reverts_to_env_resolution(self, tmp_path,
                                                      monkeypatch):
        # configure(None) clears the explicit override; the env var
        # (the process default) applies again.
        configure_disk_store(tmp_path / "explicit")
        configure_disk_store(None)
        monkeypatch.delenv(kc.KERNEL_CACHE_DIR_ENV, raising=False)
        assert kc.active_disk_store() is None
        monkeypatch.setenv(kc.KERNEL_CACHE_DIR_ENV, os.fspath(tmp_path))
        store = kc.active_disk_store()
        assert store is not None
        assert os.fspath(store.root) == os.fspath(tmp_path)
