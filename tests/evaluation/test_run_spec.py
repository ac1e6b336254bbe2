"""The run specification: flags -> RunSpec, and the journal run key
derived from it."""

import dataclasses
import json

import pytest

from repro.cli import build_parser, main, run_spec
from repro.compiler.options import OptimizationConfig
from repro.errors import LaunchFault
from repro.evaluation.harness import (
    FaultFlags,
    RunSpec,
    resolve_fleet_policy,
)
from repro.opencl import kernel_cache as kc
from repro.runtime.journal import run_key_for
from repro.runtime.resilience import FleetPolicy, ResiliencePolicy
from repro.runtime.sanitizer import SanitizerConfig

BASE = RunSpec(
    target="gtx580",
    devices=("gtx580", "hd5970"),
    scale=0.2,
    steps=4,
    fuse="off",
)

# One changed value per field, for RunSpec and for its FaultFlags. A
# new field without an entry here fails the walk below until it gets
# one (and so gets considered for the run key).
VARIANTS = {
    "target": "hd5970",
    "devices": ("gtx580", "gtx8800"),
    "fleet_policy": resolve_fleet_policy(schedule="sequential"),
    "scale": 0.3,
    "steps": 5,
    "config": OptimizationConfig(use_local=False),
    "max_sim_items": 64,
    "exec_tier": "batch",
    "sanitizer": SanitizerConfig.from_flags(sanitize=True),
    "fuse": "resident",
    "faults": FaultFlags(fault_rate=0.1),
    "fault_rate": 0.1,
    "seed": 4,
    "silent_rate": 0.5,
    "validate_every": 2,
    "cooloff": 3,
    "kill_devices": {"hd5970": 5},
    "oom_bytes": 4096,
    "slow_devices": {"hd5970": (10.0, 4)},
    "slow_ramp": 3,
    "jitter": 0.1,
}

# Fields deliberately left out of the run key, each with the reason it
# does not shape the item stream. Every field shapes it today.
DOES_NOT_SHAPE_STREAM = {}


def run_key(spec, benchmark="jg-series-single", resilience="from-spec"):
    if resilience == "from-spec":
        resilience = spec.resilience()
    return run_key_for(spec.journal_descriptor(benchmark, resilience))


def _variants():
    for f in dataclasses.fields(RunSpec):
        yield f.name, dataclasses.replace(BASE, **{f.name: VARIANTS[f.name]})
    for f in dataclasses.fields(FaultFlags):
        faults = dataclasses.replace(
            BASE.faults, **{f.name: VARIANTS[f.name]}
        )
        yield f.name, dataclasses.replace(BASE, faults=faults)


def test_every_field_changes_the_run_key_or_is_allowlisted():
    base = run_key(BASE)
    unkeyed = {name for name, spec in _variants() if run_key(spec) == base}
    assert unkeyed == set(DOES_NOT_SHAPE_STREAM), (
        "fields that do not change the run key must be allowlisted with "
        "a reason, and allowlisted fields must not change it"
    )


def test_allowlist_names_real_fields_with_reasons():
    names = {f.name for f in dataclasses.fields(RunSpec)}
    names |= {f.name for f in dataclasses.fields(FaultFlags)}
    for name, reason in DOES_NOT_SHAPE_STREAM.items():
        assert name in names and reason


def test_benchmark_and_passed_in_policy_change_the_key():
    base = run_key(BASE)
    assert run_key(BASE, benchmark="mosaic") != base

    def passed(**flags):
        return run_key(BASE, resilience=ResiliencePolicy.from_flags(**flags))

    # A policy passed in as an object keys on its configuration, not
    # just on being present.
    assert passed(fault_rate=0.1, seed=4) != base
    assert passed(fault_rate=0.1, seed=4) != passed(fault_rate=0.1, seed=1)
    assert passed(kill_devices={"hd5970": 5}) != base
    assert passed(fault_rate=0.1, seed=4) == passed(fault_rate=0.1, seed=4)


def test_describe_ignores_the_injector_draw_state():
    policy = ResiliencePolicy.from_flags(fault_rate=0.5, seed=3)
    before = policy.describe()
    for _ in range(10):
        try:
            policy.injector.maybe_fail_launch("k")
        except LaunchFault:
            pass
    assert policy.describe() == before
    assert json.dumps(before)


def test_equal_runs_build_equal_specs():
    a = RunSpec(
        devices=["gtx580", "hd5970"],
        fleet_policy="health",
        config=None,
        faults=FaultFlags(kill_devices={"hd5970": 1, "gtx580": 2}),
    )
    b = RunSpec(
        devices=("gtx580", "hd5970"),
        fleet_policy=FleetPolicy(),
        faults=FaultFlags(kill_devices=(("gtx580", 2), ("hd5970", 1))),
    )
    assert a == b
    assert run_key(a) == run_key(b)
    # Without devices there is no fleet to hold a policy.
    assert RunSpec(fleet_policy="round-robin").fleet_policy is None


def spec_for(argv):
    return run_spec(build_parser().parse_args(argv))


def test_run_flags_fold_into_one_fleet_policy():
    spec = spec_for(
        ["run", "mosaic", "--devices", "gtx580,hd5970",
         "--fleet-policy", "round-robin", "--fleet-schedule", "sequential",
         "--hedge", "on", "--hedge-factor", "2.0", "--redundancy", "vote"]
    )
    assert spec.devices == ("gtx580", "hd5970")
    assert spec.fleet_policy == FleetPolicy(
        policy="round-robin",
        schedule="sequential",
        hedge="on",
        hedge_factor=2.0,
        redundancy="vote",
    )
    assert spec.label == "fleet:gtx580+hd5970"


def test_run_flags_build_sanitizer_and_fault_flags():
    spec = spec_for(
        ["run", "mosaic", "--devices", "gtx580", "--sanitize",
         "--validate-every", "2", "--faults", "0.1", "--fault-seed", "4",
         "--kill-device", "gtx580:3", "--slow-device", "gtx580:10:4",
         "--fuse", "resident", "--steps", "6"]
    )
    assert spec.sanitizer == SanitizerConfig.from_flags(
        sanitize=True, validate_every=2
    )
    assert spec.faults == FaultFlags(
        fault_rate=0.1,
        seed=4,
        validate_every=2,
        kill_devices={"gtx580": 3},
        slow_devices={"gtx580": (10.0, 4)},
    )
    assert (spec.fuse, spec.steps, spec.scale) == ("resident", 6, 0.3)
    policy = spec.resilience()
    assert policy.validate_every == 2
    assert policy.injector.kill_after == {"gtx580": 3}


def test_serve_bench_keeps_its_own_defaults():
    spec = spec_for(["serve-bench"])
    assert spec.devices == ("gtx580", "hd5970")
    assert spec.fleet_policy == FleetPolicy()
    assert (spec.scale, spec.max_sim_items) == (0.2, 256)
    assert spec.faults == FaultFlags(fault_rate=0.05, seed=1234)
    # ... without leaking them into the subcommands sharing the flags.
    run = spec_for(["run", "mosaic"])
    assert (run.devices, run.scale, run.max_sim_items) == (None, 0.3, None)
    assert run.faults == FaultFlags()


@pytest.fixture
def fresh_kernel_cache():
    yield
    kc.configure_disk_store(None)
    kc.reset_global_cache()


def test_resume_under_another_fault_seed_is_refused(
    tmp_path, capsys, fresh_kernel_cache
):
    flags = ["--scale", "0.2", "--steps", "3", "--max-sim-items", "64",
             "--faults", "0.1", "--journal", str(tmp_path)]
    assert main(["run", "mosaic", "--fault-seed", "4"] + flags) == 0
    capsys.readouterr()
    assert main(
        ["run", "mosaic", "--fault-seed", "1", "--resume"] + flags
    ) == 1
    assert "different run configuration" in capsys.readouterr().err
    # The same flags still resume, skipping every journaled item.
    assert main(
        ["run", "mosaic", "--fault-seed", "4", "--resume"] + flags
    ) == 0
    assert "skipped=3" in capsys.readouterr().out


@pytest.mark.parametrize(
    "kwargs",
    [
        {"scale": 0.2, "steps": 1, "max_sim_items": 64},
        {"scale": 0.2, "steps": 1, "devices": ["gtx580", "hd5970"],
         "fleet_policy": "health", "fleet_schedule": "sequential"},
    ],
    ids=["single", "fleet"],
)
def test_keyword_calls_match_spec_calls(kwargs):
    from repro.apps.registry import BENCHMARKS
    from repro.evaluation.harness import run_configuration

    bench = BENCHMARKS["jg-series-single"]
    by_keywords = run_configuration(bench, "gtx580", **kwargs)
    schedule = kwargs.pop("fleet_schedule", None)
    if schedule is not None:
        kwargs["fleet_policy"] = resolve_fleet_policy(
            kwargs["fleet_policy"], schedule=schedule
        )
    by_spec = run_configuration(bench, RunSpec(**kwargs))
    assert by_spec.checksum == by_keywords.checksum
    assert by_spec.total_ns == by_keywords.total_ns
    assert by_spec.target == by_keywords.target
