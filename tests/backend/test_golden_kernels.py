"""Golden snapshots of the generated OpenCL C.

Every app's map kernel is compiled through the full pipeline and the
emitted OpenCL C compared byte-for-byte against a checked-in snapshot
under ``tests/golden/``. Two axes:

- the **default** configuration on the GTX 580 for all nine apps, and
- **device-varied** memory plans (GTX 8800 and HD 5970) for the
  local-memory-tiling apps, where the plan's shape depends on the
  device's shared-memory size and bank count.

The simulator's own generated Python is pinned the same way: for the
cases above, each app's map kernel with local-memory staging off, and
pipeline3's three stages plus their fused kernel,
``tests/golden/executor_sources.json`` holds SHA-256 digests of the
per-item, sanitized and batch sources and the batch decline reason.

The snapshots exist to catch *unintentional* codegen drift — a change
that shows up here but was not meant to alter generated code is a bug.
Intentional changes re-bless with::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/backend/test_golden_kernels.py
"""

import functools
import hashlib
import json
import os
import pathlib
import re

import pytest

from repro.apps.registry import ALL_BENCHMARKS, BENCHMARKS
from repro.backend.opencl_gen import emit_opencl
from repro.compiler.options import FIGURE8_CONFIGS
from repro.compiler.pipeline import compile_filter, compile_fused_filter
from repro.evaluation.perfbench import nolocal_config
from repro.opencl import get_device
from repro.opencl.executor import compile_kernel

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "golden"

DEFAULT_DEVICE = "gtx580"

# Apps whose memory plans are device-shaped (local-memory staging):
# snapshot them on every device in the catalog. (On the current
# catalog the plans happen to coincide — bank-conflict padding has the
# same parity on 16 and 32 banks and the constant capacities are
# equal — but the snapshots pin that fact down.)
DEVICE_VARIED = ["nbody-single", "mosaic", "parboil-cp"]
OTHER_DEVICES = ["gtx8800", "hd5970"]

# Memory-plan variation along the Figure 8 configuration axis, where
# the generated code genuinely differs (global vs local staging vs
# constant, with and without vectorized accesses).
CONFIG_VARIED = [
    ("nbody-single", "Global"),
    ("nbody-single", "Local+NoConflicts+Vector"),
    ("parboil-cp", "Constant+Vector"),
    ("mosaic", "Local"),
]

# The executor golden adds each app's map kernel with local-memory
# staging off (perfbench's nolocal_config(), where every map is
# batch-eligible) and pipeline3's stages.
NOLOCAL = "NoLocal"
PIPELINE3_STAGES = ("scale", "smooth", "sharpen")

CASES = (
    [(name, DEFAULT_DEVICE, None) for name in sorted(BENCHMARKS)]
    + [
        (name, device, None)
        for name in DEVICE_VARIED
        for device in OTHER_DEVICES
    ]
    + [(name, DEFAULT_DEVICE, config) for name, config in CONFIG_VARIED]
)


def _map_kernel(name, device_name, config_name, method=None):
    bench = ALL_BENCHMARKS[name]
    checked = bench.checked()
    device = get_device(device_name)
    if method == "fused":
        members = [
            (checked.lookup_method(bench.main_class, m), {})
            for m in PIPELINE3_STAGES
        ]
        return compile_fused_filter(checked, members, device=device).plan.kernel
    worker = checked.lookup_method(
        bench.main_class, method or bench.filter_method
    )
    if config_name == NOLOCAL:
        config = nolocal_config()
    else:
        config = FIGURE8_CONFIGS[config_name] if config_name else None
    compiled = compile_filter(
        checked,
        worker,
        device=device,
        config=config,
        bound_values={p.name: 4 for p in worker.params[:-1]},
    )
    return compiled.plan.kernel


def _emit(name, device_name, config_name):
    return emit_opencl(
        _map_kernel(name, device_name, config_name), local_size_hint=128
    )


def _stem(name, device, config):
    stem = "{}-{}".format(name, device)
    if config:
        stem += "-" + config.lower().replace("+", "-")
    return stem


def _snapshot_name(name, device, config):
    return _stem(name, device, config) + ".cl"


@pytest.mark.parametrize("name,device,config", CASES)
def test_golden_opencl(name, device, config):
    source = _emit(name, device, config)
    path = GOLDEN_DIR / _snapshot_name(name, device, config)
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(source)
        return
    assert path.exists(), (
        "missing golden snapshot {} — run with REPRO_UPDATE_GOLDEN=1 "
        "to create it".format(path)
    )
    expected = path.read_text()
    assert source == expected, (
        "generated OpenCL C for {} on {} drifted from {} — if the "
        "change is intentional, re-bless with REPRO_UPDATE_GOLDEN=1".format(
            name, device, path.name
        )
    )


# -- the executor's generated Python ----------------------------------------

EXECUTOR_GOLDEN = GOLDEN_DIR / "executor_sources.json"

# (app, device, config, filter method): None runs the app's own
# filter, "fused" composes pipeline3's three stages into one kernel.
EXECUTOR_CASES = (
    [case + (None,) for case in CASES]
    + [(name, DEFAULT_DEVICE, NOLOCAL, None) for name in sorted(BENCHMARKS)]
    + [
        ("pipeline3", DEFAULT_DEVICE, None, method)
        for method in PIPELINE3_STAGES + ("fused",)
    ]
)


def _executor_key(name, device, config, method):
    stem = _stem(name, device, config)
    return stem + "-" + method if method else stem


def _digest(source):
    if source is None:
        return None
    return hashlib.sha256(source.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _compiled(case):
    compiled = compile_kernel(_map_kernel(*case))
    compiled._sanitized_item()
    return compiled


@pytest.mark.parametrize(
    "case", EXECUTOR_CASES, ids=[_executor_key(*c) for c in EXECUTOR_CASES]
)
def test_golden_executor_sources(case):
    key = _executor_key(*case)
    compiled = _compiled(case)
    got = {
        "per_item": _digest(compiled.source),
        "sanitized": _digest(compiled.sanitized_source),
        "batch": _digest(compiled.batch_source),
        "batch_reason": compiled.batch_reason,
    }
    golden = (
        json.loads(EXECUTOR_GOLDEN.read_text())
        if EXECUTOR_GOLDEN.exists()
        else {}
    )
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        golden[key] = got
        EXECUTOR_GOLDEN.write_text(
            json.dumps(golden, indent=2, sort_keys=True) + "\n"
        )
        return
    assert key in golden, (
        "missing executor golden entry {} — run with REPRO_UPDATE_GOLDEN=1 "
        "to create it".format(key)
    )
    assert got == golden[key], (
        "the executor's generated Python for {} drifted from {}: a warm "
        "on-disk kernel store would keep serving the old code, so an "
        "intentional change needs a DISK_ARTIFACT_VERSION bump in "
        "repro.opencl.executor and a re-bless with "
        "REPRO_UPDATE_GOLDEN=1".format(key, EXECUTOR_GOLDEN.name)
    )


# ``_i8``/``_i32``/``_i64`` are the wrap helpers (``\b`` keeps trace
# appends such as ``_ti32(`` out).
WRAP_CALL = re.compile(r"\b_i(8|32|64)\(")
OVERFLOW_BRANCH = re.compile(r"else _i(8|32|64)\(_w\)")
# A trace appender, ``_ti<site>``, or the global-id appender
# ``_tl<site>`` no source may take (``m_tiles`` is neither).
APPENDER = re.compile(r"\b_t[li]\d+")


@pytest.mark.parametrize(
    "case", EXECUTOR_CASES, ids=[_executor_key(*c) for c in EXECUTOR_CASES]
)
def test_per_item_sources_read_with_item_and_trace_with_appends(case):
    """The per-item and sanitized sources read a scalar from a
    memoryview of its array and a vector as a list (no ``.item(`` call
    at all, no NumPy scalar from ``a[i]``), call a wrap helper only in
    a range check's overflow branch, and record an access with one
    bound append of its index (no per-access tuple, no global id)."""
    compiled = _compiled(case)
    appenders = ["_ti{}".format(site) for site in sorted(compiled.site_meta)]
    for source in (compiled.source, compiled.sanitized_source):
        header, body = source.split("\n", 1)
        assert APPENDER.findall(header) == appenders
        assert all(len(APPENDER.findall(line)) <= 1 for line in body.splitlines())
        assert ".item(" not in body
        assert not WRAP_CALL.search(OVERFLOW_BRANCH.sub("", body))
        assert "(_gid," not in body.replace(" ", "")
        assert "_tr" not in header


def test_mosaic_wraps_each_tile_row_offset_once():
    """``tiles[j][k]`` is ``j * 17 + k``: the per-item source computes
    the wrapped row offset once where it stages a tile and once per
    iteration of the loop that scores one, not once per element."""
    source = _compiled(("mosaic", DEFAULT_DEVICE, None, None)).source
    assert 1 <= source.count("* (17)") <= 2
