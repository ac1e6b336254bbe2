"""Resilience-layer tests: fault injection, retry/backoff, circuit
breaking, transparent host fallback, and the failure ledger."""

import numpy as np
import pytest

from repro.apps.registry import BENCHMARKS
from repro.compiler.pipeline import compile_filter
from repro.errors import (
    ControlFlowSignal,
    DeviceError,
    DeviceOOM,
    LaunchFault,
    ReproError,
    RuntimeFault,
    TaskFault,
    TransferFault,
    UnderflowException,
)
from repro.evaluation.harness import run_configuration
from repro.frontend import check_program, parse_program
from repro.opencl import get_device
from repro.runtime.profiler import ExecutionProfile, FailureLedger
from repro.runtime.resilience import (
    CircuitBreaker,
    FaultInjector,
    FaultSpec,
    ResiliencePolicy,
    ResilientWorker,
    RetryPolicy,
)

from tests.conftest import SAXPY_SOURCE


def saxpy_filter(**kwargs):
    checked = check_program(parse_program(SAXPY_SOURCE))
    return compile_filter(
        checked,
        checked.lookup_method("Saxpy", "apply"),
        device=get_device("gtx580"),
        local_size=8,
        **kwargs,
    )


def frozen(n=8):
    xs = np.arange(n, dtype=np.float32)
    xs.setflags(write=False)
    return xs


# -- FaultSpec / FaultInjector ---------------------------------------------


def test_fault_spec_disabled_by_default():
    assert not FaultSpec().enabled()
    assert FaultSpec.uniform(0.1).enabled()


def test_injector_is_deterministic_per_seed():
    def decisions(seed):
        inj = FaultInjector(FaultSpec.uniform(0.5, seed=seed))
        out = []
        for _ in range(32):
            try:
                inj.maybe_fail_launch("k")
                out.append(0)
            except LaunchFault:
                out.append(1)
        return out

    assert decisions(7) == decisions(7)
    assert decisions(7) != decisions(8)


def test_injector_transmit_flips_exactly_one_bit():
    inj = FaultInjector(FaultSpec(transfer=1.0, seed=1))
    data = bytes(range(64))
    wire = inj.transmit(data, "h2d", "t")
    assert wire != data
    diff = [a ^ b for a, b in zip(wire, data)]
    assert sum(1 for d in diff if d) == 1
    assert bin(max(diff)).count("1") == 1
    assert inj.injected["transfer"] == 1


def test_injector_zero_rate_passes_data_through_unchanged():
    inj = FaultInjector(FaultSpec())
    data = b"abc"
    assert inj.transmit(data, "h2d", "t") is data
    inj.maybe_fail_launch("k")
    inj.maybe_oom("t", 1 << 30)
    assert inj.injected == {
        "transfer": 0, "launch": 0, "oom": 0, "silent": 0, "latency": 0,
    }


# -- RetryPolicy / CircuitBreaker ------------------------------------------


def test_retry_backoff_is_deterministic_exponential():
    policy = RetryPolicy(max_retries=3, base_backoff_ns=100.0, multiplier=2.0)
    assert [policy.backoff_ns(a) for a in range(3)] == [100.0, 200.0, 400.0]


def test_circuit_breaker_opens_after_consecutive_faults():
    breaker = CircuitBreaker(threshold=3)
    assert not breaker.record_fault()
    assert not breaker.record_fault()
    breaker.record_success()  # success resets the streak
    assert not breaker.record_fault()
    assert not breaker.record_fault()
    assert breaker.record_fault()
    assert breaker.open


# -- glue / executor injection points --------------------------------------


def test_corrupted_transfer_raises_transfer_fault_with_partial_stages():
    cf = saxpy_filter()
    cf.injector = FaultInjector(FaultSpec(transfer=1.0, seed=0))
    with pytest.raises(TransferFault) as exc:
        cf(frozen())
    assert exc.value.stage == "transfer"
    assert exc.value.partial_stages.total() > 0  # java marshal already done
    assert cf.profile.stages.total() == 0  # failed attempt not recorded


def test_injected_launch_fault_comes_from_executor():
    cf = saxpy_filter()
    cf.injector = FaultInjector(FaultSpec(launch=1.0, seed=0))
    with pytest.raises(LaunchFault) as exc:
        cf(frozen())
    assert exc.value.stage == "launch"


def test_injected_oom():
    cf = saxpy_filter()
    cf.injector = FaultInjector(FaultSpec(oom=1.0, seed=0))
    with pytest.raises(DeviceOOM) as exc:
        cf(frozen())
    assert exc.value.stage == "oom"


def test_clean_injector_changes_nothing():
    plain = saxpy_filter()
    hooked = saxpy_filter()
    hooked.injector = FaultInjector(FaultSpec(seed=0))
    xs = frozen()
    assert np.array_equal(plain(xs), hooked(xs))
    assert plain.profile.stages.total() == hooked.profile.stages.total()


# -- ResilientWorker --------------------------------------------------------


class FlakyWorker:
    """Device stand-in failing the first ``failures`` calls."""

    def __init__(self, failures, exc=None):
        self.failures = failures
        self.calls = 0
        self.exc = exc or LaunchFault("boom")

    def __call__(self, value):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return value * 2


def make_resilient(
    device, retry=None, threshold=3, cooloff=None, validate_every=0, host=None
):
    profile = ExecutionProfile()
    worker = ResilientWorker(
        name="t",
        device_worker=device,
        host_factory=lambda: host or (lambda v: v * 2),
        retry=retry or RetryPolicy(max_retries=2),
        breaker=CircuitBreaker(threshold, cooloff=cooloff),
        profile=profile,
        validate_every=validate_every,
    )
    return worker, profile


def test_retry_then_success_records_ledger_and_recovery():
    device = FlakyWorker(failures=2)
    worker, profile = make_resilient(device, threshold=5)
    assert worker(21) == 42
    summary = profile.faults.summary()
    assert summary["recovery.faults"] == 2
    assert summary["recovery.retries"] == 2
    assert summary["recovery.fallbacks"] == 0
    assert summary["per_task"]["t"]["by_stage"] == {"launch": 2}
    assert profile.stages.recovery > 0
    assert profile.stages.total() == profile.stages.recovery
    assert not worker.demoted


def test_exhausted_retries_fall_back_to_host_for_the_item():
    device = FlakyWorker(failures=100)
    worker, profile = make_resilient(
        device, retry=RetryPolicy(max_retries=1), threshold=10
    )
    assert worker(5) == 10  # computed by the host fallback
    assert device.calls == 2  # initial + 1 retry
    assert profile.faults.summary()["recovery.fallbacks"] == 1
    assert not worker.demoted


def test_breaker_demotes_to_host_permanently():
    device = FlakyWorker(failures=100)
    worker, profile = make_resilient(
        device, retry=RetryPolicy(max_retries=0), threshold=2
    )
    assert worker(1) == 2  # fault 1 -> item falls back to host
    assert worker(2) == 4  # fault 2 -> breaker opens -> demotion
    calls_before = device.calls
    assert worker(3) == 6  # device never consulted again
    assert device.calls == calls_before
    assert worker.demoted
    assert profile.faults.summary()["demoted_tasks"] == ["t"]
    assert profile.faults.tasks()["t"]["demoted"]


def test_success_resets_the_breaker_streak():
    device = FlakyWorker(failures=1)
    worker, profile = make_resilient(
        device, retry=RetryPolicy(max_retries=2), threshold=2
    )
    assert worker(1) == 2  # one fault, then device succeeds on retry
    assert worker(2) == 4
    assert not worker.demoted
    assert worker.breaker.consecutive == 0


def test_underflow_passes_through_the_resilience_layer():
    def underflowing(value):
        raise UnderflowException()

    worker, _profile = make_resilient(underflowing)
    with pytest.raises(UnderflowException):
        worker(1)


def test_backoff_charged_per_attempt():
    device = FlakyWorker(failures=2)
    retry = RetryPolicy(max_retries=2, base_backoff_ns=1000.0, multiplier=3.0)
    worker, profile = make_resilient(device, retry=retry, threshold=10)
    worker(1)
    # Two failed attempts: backoff 1000 + 3000 (no partial stage time
    # from FlakyWorker, which raises without a partial_stages attr).
    assert profile.stages.recovery == pytest.approx(4000.0)
    lost_ns = profile.faults.summary()["recovery.time_lost_ns"]
    assert lost_ns == pytest.approx(4000.0)


# -- engine integration ------------------------------------------------------


def test_faulted_run_produces_identical_results_and_a_ledger():
    bench = BENCHMARKS["jg-series-single"]
    clean = run_configuration(bench, "gtx580", scale=0.2)
    policy = ResiliencePolicy.from_flags(fault_rate=0.3, seed=7)
    faulted = run_configuration(bench, "gtx580", scale=0.2, resilience=policy)
    # Transparent recovery: byte-identical results.
    assert faulted.checksum == clean.checksum
    # The ledger saw the injected faults...
    assert faulted.faults["recovery.faults"] > 0
    # ...and the recovery overhead is visible in the stage totals.
    assert faulted.stages.get("recovery", 0.0) > 0
    assert faulted.total_ns > clean.total_ns
    assert clean.faults == {}
    assert "recovery" not in clean.stages


def test_faulted_runs_are_deterministic_per_seed():
    bench = BENCHMARKS["jg-series-single"]
    policy_a = ResiliencePolicy.from_flags(fault_rate=0.25, seed=11)
    policy_b = ResiliencePolicy.from_flags(fault_rate=0.25, seed=11)
    a = run_configuration(bench, "gtx580", scale=0.2, resilience=policy_a)
    b = run_configuration(bench, "gtx580", scale=0.2, resilience=policy_b)
    assert a.checksum == b.checksum
    assert a.total_ns == b.total_ns
    assert a.faults == b.faults
    assert a.stages == b.stages


def test_resilience_disabled_keeps_seed_profile_shape():
    bench = BENCHMARKS["jg-series-single"]
    result = run_configuration(bench, "gtx580", scale=0.2)
    assert set(result.stages) == {
        "java_marshal",
        "c_marshal",
        "opencl_setup",
        "transfer",
        "kernel",
        "host_compute",
    }


def test_from_flags_zero_rate_disables_resilience():
    assert ResiliencePolicy.from_flags(fault_rate=0.0, seed=1) is None


def test_policy_without_injector_still_recovers_real_faults():
    # ResiliencePolicy(injector=None): no injection, but genuine device
    # faults still retry and fall back.
    device = FlakyWorker(failures=100, exc=DeviceError("real fault"))
    policy = ResiliencePolicy(retry=RetryPolicy(max_retries=1))
    profile = ExecutionProfile()
    worker = policy.wrap("t", device, lambda: (lambda v: v + 1), profile)
    assert worker(1) == 2
    assert profile.faults.summary()["recovery.faults"] == 2


# -- exception taxonomy ------------------------------------------------------


def test_underflow_is_control_flow_not_an_error():
    assert issubclass(UnderflowException, ControlFlowSignal)
    assert not issubclass(UnderflowException, ReproError)
    assert not issubclass(UnderflowException, RuntimeFault)


def test_injected_fault_taxonomy():
    for cls, stage in (
        (TransferFault, "transfer"),
        (LaunchFault, "launch"),
        (DeviceOOM, "oom"),
    ):
        assert issubclass(cls, DeviceError)
        assert cls.stage == stage
    assert issubclass(TaskFault, RuntimeFault)


# -- failure ledger ----------------------------------------------------------


def test_ledger_report_renders_all_counters():
    ledger = FailureLedger()
    ledger.record_fault("A.f", "transfer")
    ledger.record_fault("A.f", "launch")
    ledger.record_retry("A.f")
    ledger.record_fallback("A.f")
    ledger.record_demotion("B.g")
    ledger.add_time_lost("A.f", 1234.0)
    text = ledger.report()
    assert "faults=2" in text
    assert "transfer=1" in text and "launch=1" in text
    assert "DEMOTED-TO-HOST" in text
    assert "A.f" in text and "B.g" in text
    summary = ledger.summary()
    assert summary["recovery.faults"] == 2
    assert summary["demoted_tasks"] == ["B.g"]
    assert summary["recovery.demotions"] == 1
    assert summary["recovery.time_lost_ns"] == 1234.0
    assert summary["per_task"]["A.f"]["time_lost_ns"] == 1234.0
    # Legacy alias keys are gone — canonical dotted names only.
    assert "faults" not in summary
    assert "demotions" not in summary


def test_empty_ledger_report():
    assert "no device faults" in FailureLedger().report()


# -- half-open circuit breaker ----------------------------------------------


def test_breaker_half_opens_after_cooloff_and_recloses():
    breaker = CircuitBreaker(threshold=2, cooloff=3)
    assert breaker.record_fault() is False
    assert breaker.record_fault() is True
    assert breaker.state == "open"
    assert breaker.record_host_success() is False
    assert breaker.record_host_success() is False
    assert breaker.record_host_success() is True  # open -> half_open
    assert breaker.half_open and not breaker.open
    breaker.record_success()  # probe succeeded
    assert breaker.state == "closed"


def test_breaker_probe_failure_reopens():
    breaker = CircuitBreaker(threshold=1, cooloff=1)
    breaker.record_fault()
    breaker.record_host_success()
    assert breaker.half_open
    breaker.record_fault()  # probe fails: straight back open
    assert breaker.open
    assert breaker.host_successes == 0  # cooloff restarts


def test_breaker_without_cooloff_stays_open_forever():
    breaker = CircuitBreaker(threshold=1)
    breaker.record_fault()
    for _ in range(100):
        assert breaker.record_host_success() is False
    assert breaker.open


def test_worker_repromotes_after_cooloff():
    device = FlakyWorker(failures=2)
    worker, profile = make_resilient(
        device, retry=RetryPolicy(max_retries=0), threshold=2, cooloff=2
    )
    worker(1)  # fault 1: host fallback
    worker(2)  # fault 2: breaker opens, demotion
    assert worker.demoted
    worker(3)  # host, cooloff 1
    worker(4)  # host, cooloff 2 -> half-open
    assert worker.breaker.half_open
    calls_before = device.calls
    assert worker(5) == 10  # probe: device succeeds, re-promoted
    assert device.calls == calls_before + 1
    assert not worker.demoted
    assert worker.breaker.state == "closed"
    assert profile.faults.summary()["recovery.promotions"] == 1
    assert profile.faults.tasks()["t"]["promotions"] == 1


def test_worker_failed_probe_goes_back_to_host():
    device = FlakyWorker(failures=100)
    worker, profile = make_resilient(
        device, retry=RetryPolicy(max_retries=2), threshold=1, cooloff=1
    )
    worker(1)  # breaker opens immediately
    worker(2)  # host success -> half-open
    assert worker.breaker.half_open
    calls_before = device.calls
    assert worker(3) == 6  # probe fails -> host answers the item
    # A half-open probe gets exactly one device attempt (no retries).
    assert device.calls == calls_before + 1
    assert worker.breaker.open
    assert profile.faults.summary()["recovery.promotions"] == 0


# -- silent corruption + differential validation -----------------------------


def test_silent_corruption_flips_one_element():
    inj = FaultInjector(FaultSpec(silent=1.0, seed=5))
    out = np.ones(16, dtype=np.float32)
    inj.maybe_corrupt_output(out, "t")
    assert inj.injected["silent"] == 1
    assert (out != 1.0).sum() == 1


def test_silent_corruption_int_and_bool_buffers():
    inj = FaultInjector(FaultSpec(silent=1.0, seed=5))
    iout = np.zeros(8, dtype=np.int32)
    inj.maybe_corrupt_output(iout, "t")
    assert (iout != 0).sum() == 1
    bout = np.ones(8, dtype=bool)
    inj.maybe_corrupt_output(bout, "t")
    assert (~bout).sum() == 1


def test_uniform_spec_keeps_silent_opt_in():
    spec = FaultSpec.uniform(0.5, seed=1)
    assert spec.silent == 0.0
    assert FaultSpec.uniform(0.5, seed=1, silent=0.25).silent == 0.25


def test_validation_catches_wrong_device_result():
    worker, profile = make_resilient(
        lambda v: v * 2 + 1,  # silently wrong device
        threshold=10,
        validate_every=1,
    )
    assert worker(5) == 10  # host ground truth wins
    rec = profile.faults.tasks()["t"]
    assert rec["validations"] == 1
    assert rec["mismatches"] == 1
    assert rec["by_stage"] == {"validate": 1}
    assert rec["trips"] == {"validate": 1}


def test_validation_sampling_period():
    seen = []

    def device(v):
        seen.append(v)
        return v * 2

    worker, profile = make_resilient(device, validate_every=3)
    for i in range(9):
        assert worker(i) == i * 2
    rec = profile.faults.tasks()["t"]
    assert rec["validations"] == 3  # items 0, 3, 6
    assert rec["mismatches"] == 0
    assert len(seen) == 9


def test_validation_mismatches_trip_the_breaker():
    worker, profile = make_resilient(
        lambda v: v * 2 + 1, threshold=2, validate_every=1
    )
    worker(1)
    worker(2)  # second mismatch opens the breaker
    assert worker.demoted
    assert profile.faults.summary()["demoted_tasks"] == ["t"]
    calls = profile.faults.tasks()["t"]["validations"]
    worker(3)  # host-only now: no further validation
    assert profile.faults.tasks()["t"]["validations"] == calls


def test_validation_nan_results_are_not_mismatches():
    nan = float("nan")
    worker, profile = make_resilient(
        lambda v: nan, host=lambda v: nan, validate_every=1
    )
    out = worker(1)
    assert out != out  # NaN propagates
    rec = profile.faults.tasks()["t"]
    assert rec["validations"] == 1 and rec["mismatches"] == 0


def test_policy_from_flags_validation_only():
    policy = ResiliencePolicy.from_flags(validate_every=4, cooloff=2)
    assert policy is not None
    assert policy.injector is None
    assert policy.validate_every == 4
    assert policy.cooloff == 2


def test_policy_from_flags_sanitize_only():
    policy = ResiliencePolicy.from_flags(sanitize=True)
    assert policy is not None and policy.injector is None


def test_policy_from_flags_silent_rate_builds_injector():
    policy = ResiliencePolicy.from_flags(silent_rate=0.5, seed=9)
    assert policy.injector is not None
    assert policy.injector.spec.silent == 0.5
    assert policy.injector.spec.transfer == 0.0


def test_ledger_guard_counters_render():
    ledger = FailureLedger()
    ledger.record_trip("A.f", "bounds", 2)
    ledger.record_trip("A.f", "race", 3)
    ledger.record_validation("A.f", ok=True)
    ledger.record_validation("A.f", ok=False)
    ledger.record_promotion("A.f")
    text = ledger.report()
    assert "bounds=2" in text and "race=3" in text
    assert "validations=2" in text and "mismatches=1" in text
    assert "promotions=1" in text
    summary = ledger.summary()
    assert summary["guards.trips"] == {"bounds": 2, "race": 3}
    assert summary["guards.validations"] == 2
    assert summary["guards.mismatches"] == 1
    assert summary["per_task"]["A.f"]["promotions"] == 1
    assert ledger.any_activity()
    assert summary["recovery.faults"] == 0


def test_any_activity_false_on_empty_ledger():
    assert not FailureLedger().any_activity()
