"""Acceptance tests for guarded execution: a *mutated* kernel (the
simulated analogue of a miscompiled or corrupted device binary) must be
detected by the sanitizer, trip the circuit breaker, and still leave the
run with the correct host-computed result.

The device kernel is mutated post-compilation by rewriting its store
site in the kernel IR (out-of-bounds offset, racy constant index, NaN
payload) and recompiling — the host interpreter path is untouched and
stays the ground truth.
"""

import copy

import numpy as np
import pytest

from repro.backend import kernel_ir as K
from repro.compiler.pipeline import compile_filter
from repro.errors import BoundsFault, NaNPoisonFault, RaceFault
from repro.frontend import check_program, parse_program
from repro.opencl import get_device
from repro.opencl.executor import compile_kernel
from repro.runtime.profiler import ExecutionProfile
from repro.runtime.resilience import (
    CircuitBreaker,
    ResiliencePolicy,
    ResilientWorker,
    RetryPolicy,
)
from repro.runtime.sanitizer import SanitizerConfig
from repro.apps.registry import BENCHMARKS
from repro.evaluation.harness import run_configuration

from tests.conftest import SAXPY_SOURCE


def saxpy_filter(sanitizer=None):
    checked = check_program(parse_program(SAXPY_SOURCE))
    return compile_filter(
        checked,
        checked.lookup_method("Saxpy", "apply"),
        device=get_device("gtx580"),
        local_size=8,
        sanitizer=sanitizer,
    )


def mutate_store(cf, mutation):
    """Rewrite the kernel's output store and recompile the device code.

    The compiled kernel's IR belongs to a shared cache entry, so the
    mutation edits a copy of it."""
    kernel = copy.deepcopy(cf.compiled_kernel.kernel)
    stores = [
        s for s in K.walk_stmts(kernel.body) if isinstance(s, K.KStore)
    ]
    assert stores, "saxpy kernel has no store?"
    mutation(stores[-1])
    cf.compiled_kernel = compile_kernel(kernel)
    return cf


def oob_write(store):
    store.index = K.KBin("+", store.index, K.KConst(100, K.K_INT), K.K_INT)


def racy_write(store):
    store.index = K.KConst(0, K.K_INT)


def nan_write(store):
    store.value = K.KConst(float("nan"), K.K_FLOAT)


def frozen(n=16):
    xs = np.arange(n, dtype=np.float32)
    xs.setflags(write=False)
    return xs


def guarded_worker(cf, expected, threshold=2):
    """Wrap ``cf`` exactly the way the engine does under resilience."""
    profile = ExecutionProfile()
    worker = ResilientWorker(
        name="Saxpy.apply",
        device_worker=cf,
        host_factory=lambda: (lambda v: expected.copy()),
        retry=RetryPolicy(max_retries=1),
        breaker=CircuitBreaker(threshold),
        profile=profile,
    )
    return worker, profile


@pytest.mark.parametrize(
    "mutation, kind, fault_cls",
    [
        (oob_write, "bounds", BoundsFault),
        (racy_write, "race", RaceFault),
        (nan_write, "nan", NaNPoisonFault),
    ],
)
def test_mutated_kernel_is_detected_and_host_result_wins(
    mutation, kind, fault_cls
):
    xs = frozen()
    expected = saxpy_filter()(xs)  # the clean kernel's answer

    cf = mutate_store(saxpy_filter(sanitizer=SanitizerConfig()), mutation)
    # Unwrapped, the mutated kernel raises the matching SanitizerFault.
    with pytest.raises(fault_cls):
        cf(xs)

    cf = mutate_store(saxpy_filter(sanitizer=SanitizerConfig()), mutation)
    worker, profile = guarded_worker(cf, expected, threshold=2)

    # Item 1: fault + retry-fault -> host fallback; breaker at 2 opens.
    out = worker(xs)
    assert np.array_equal(out, expected)
    assert worker.demoted

    # The run keeps going on the host with correct results.
    out2 = worker(xs)
    assert np.array_equal(out2, expected)

    ledger = profile.faults
    rec = ledger.tasks["Saxpy.apply"]
    assert rec.by_stage.get(kind, 0) >= 1
    assert rec.trips.get(kind, 0) >= 1
    assert ledger.demotions == ["Saxpy.apply"]
    assert profile.stages.recovery > 0  # lost time was accounted


def test_unsanitized_mutation_corrupts_silently_where_possible():
    """The NaN mutation passes undetected without guards — that is the
    gap the sanitizer closes."""
    xs = frozen()
    cf = mutate_store(saxpy_filter(), nan_write)
    out = cf(xs)
    assert np.isnan(out).all()  # garbage flowed straight through


def test_silent_corruption_end_to_end_validated_run_is_correct():
    """A full engine run with silently-corrupting hardware: every device
    output is perturbed, sampled validation catches each, the breaker
    demotes the task, and the final checksum equals the clean run's."""
    bench = BENCHMARKS["jg-series-single"]
    clean = run_configuration(
        bench, "gtx580", scale=0.05, steps=6, max_sim_items=128
    )
    policy = ResiliencePolicy.from_flags(
        silent_rate=1.0, seed=11, validate_every=1
    )
    faulty = run_configuration(
        bench,
        "gtx580",
        scale=0.05,
        steps=6,
        resilience=policy,
        max_sim_items=128,
    )
    assert faulty.checksum == clean.checksum
    faults = faulty.faults
    assert faults["guards.mismatches"] >= 1
    assert faults["per_task"]
    (rec,) = faults["per_task"].values()
    assert rec["trips"].get("validate", 0) >= 1
    # threshold=3 consecutive mismatches opened the breaker mid-stream.
    assert faults["demoted_tasks"], faults


def test_half_open_breaker_repromotes_in_engine_run():
    """With a cooloff, a transiently-bad device is probed and the task
    returns to it; the ledger records the promotion."""
    bench = BENCHMARKS["jg-series-single"]
    policy = ResiliencePolicy.from_flags(
        fault_rate=0.2,
        seed=2,
        breaker_threshold=1,
        cooloff=1,
        retry=RetryPolicy(max_retries=0),
    )
    clean = run_configuration(
        bench, "gtx580", scale=0.05, steps=10, max_sim_items=128
    )
    faulty = run_configuration(
        bench,
        "gtx580",
        scale=0.05,
        steps=10,
        resilience=policy,
        max_sim_items=128,
    )
    assert faulty.checksum == clean.checksum
    faults = faulty.faults
    assert faults["demoted_tasks"]
    assert faults["recovery.promotions"] >= 1, faults
