"""Differential property tests for the execution tiers.

The batch tier (vectorized whole-NDRange execution) must be
*bit-identical* to the per-item tier — and both must agree with the
host interpreter — on every app. Two layers of evidence:

- **End to end**: each Table 3 benchmark, and pipeline3 with its
  stages run apart (``--fuse off``) and as one fused kernel
  (``--fuse kernel``), runs under ``per-item`` and ``batch`` with the
  same config; checksums, total simulated time, and the full stage
  breakdown must match exactly (timing equality means the tiers
  produced identical instruction traces, segment counts, and
  memory-access sites — not just identical output buffers). The
  bytecode target supplies the interpreter's checksum.
- **Kernel level, randomized inputs**: every launch of a run is
  captured and replayed under both tiers on seeded-random buffer
  contents; every output buffer must be NaN-safe bit-equal
  (:func:`repro.runtime.sanitizer.values_equal`) and the simulated
  op-cycle counts identical.

Local-memory staging is compiled off (``use_local=False``) so the
batch tier is eligible for every app's map kernel; the tiling variants
are covered by the decline tests in
``tests/opencl/test_batch_executor.py``.
"""

import zlib

import numpy as np
import pytest

from repro.apps.registry import ALL_BENCHMARKS, BENCHMARKS
from repro.evaluation.harness import run_configuration
from repro.evaluation.perfbench import capture_launches, nolocal_config
from repro.runtime.sanitizer import values_equal

APPS = sorted(BENCHMARKS)

SCALE = 0.1
MAX_ITEMS = 128


def _run(name, tier, config, fuse=None):
    return run_configuration(
        ALL_BENCHMARKS[name],
        "gtx580",
        scale=SCALE,
        steps=1,
        config=config,
        max_sim_items=MAX_ITEMS,
        exec_tier=tier,
        fuse=fuse,
    )


def _assert_tiers_and_interpreter_agree(name, fuse=None):
    config = nolocal_config()
    per_item = _run(name, "per-item", config, fuse)
    batch = _run(name, "batch", config, fuse)

    assert values_equal(per_item.checksum, batch.checksum)
    # Timing equality is the strong check: identical simulated time
    # means identical instruction segments and memory-access traces.
    assert per_item.total_ns == batch.total_ns
    assert per_item.stages == batch.stages

    # The tier request was honored, not silently ignored.
    assert per_item.executor["executor.launches"] == {
        "per-item": sum(per_item.executor["executor.launches"].values())
    }
    assert batch.executor["executor.launches"].get("batch", 0) > 0

    host = run_configuration(
        ALL_BENCHMARKS[name], "bytecode", scale=SCALE, steps=1
    )
    assert values_equal(per_item.checksum, host.checksum)
    return batch


@pytest.mark.parametrize("name", APPS)
def test_end_to_end_tiers_and_interpreter_agree(name):
    _assert_tiers_and_interpreter_agree(name)


@pytest.mark.parametrize("fuse", ["off", "kernel"])
def test_pipeline3_tiers_and_interpreter_agree(fuse):
    # Under "kernel" the three stages run as one fused kernel, so its
    # seam rounding runs on both tiers.
    batch = _assert_tiers_and_interpreter_agree("pipeline3", fuse)
    fused = 1 if fuse == "kernel" else 0
    assert batch.fusion.get("fused_kernels", 0) == fused


def _randomize(buffers, rng):
    """Seeded-random float contents (positive, away from zero, so no
    tier hits a math-domain fault); integer buffers keep their captured
    values — they may index memory."""
    out = {}
    for name, buf in buffers.items():
        if buf.dtype.kind == "f":
            out[name] = (rng.rand(buf.size) + 0.5).astype(buf.dtype)
        else:
            out[name] = buf.copy()
    return out


@pytest.mark.parametrize("name", APPS)
def test_kernel_level_bit_equal_on_random_inputs(name):
    config = nolocal_config()
    with capture_launches() as captured:
        run_configuration(
            BENCHMARKS[name],
            "gtx580",
            scale=SCALE,
            steps=1,
            config=config,
            max_sim_items=MAX_ITEMS,
            exec_tier="per-item",
        )
    rng = np.random.RandomState(zlib.crc32(name.encode()))
    compared = 0
    for kname, rec in sorted(captured.items()):
        compiled = rec["kernel"]
        if not compiled.batch_supported:
            continue
        for bufs, scalars, gsz, lsz in rec["launches"][:2]:
            seed_bufs = _randomize(bufs, rng)
            item_bufs = {n: b.copy() for n, b in seed_bufs.items()}
            batch_bufs = {n: b.copy() for n, b in seed_bufs.items()}
            item_trace = compiled.launch(
                item_bufs, dict(scalars), gsz, lsz, tier="per-item"
            )
            batch_trace = compiled.launch(
                batch_bufs, dict(scalars), gsz, lsz, tier="batch"
            )
            assert item_trace.tier == "per-item"
            assert batch_trace.tier == "batch"
            assert item_trace.op_cycles == batch_trace.op_cycles, kname
            for pname in item_bufs:
                assert values_equal(item_bufs[pname], batch_bufs[pname]), (
                    "buffer {!r} of kernel {} diverged between tiers".format(
                        pname, kname
                    )
                )
            compared += 1
    assert compared > 0, "no batch-eligible kernel captured for " + name
