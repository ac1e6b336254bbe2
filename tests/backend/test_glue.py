"""Glue-layer tests: the generated host coordination code."""

import numpy as np
import pytest

from repro.backend import glue
from repro.compiler.options import OptimizationConfig
from repro.compiler.pipeline import OffloadOptions, compile_filter
from repro.errors import RuntimeFault
from repro.frontend import check_program, parse_program
from repro.opencl import get_device
from repro.opencl.executor import EXEC_TIER_ENV
from repro.runtime.profiler import ExecutionProfile

from tests.conftest import SAXPY_SOURCE


def _saxpy(**fields):
    checked = check_program(parse_program(SAXPY_SOURCE))
    return compile_filter(
        checked,
        checked.lookup_method("Saxpy", "apply"),
        device=get_device("gtx580"),
        **fields,
    )


@pytest.fixture
def saxpy_filter():
    return _saxpy(local_size=8)


def test_every_invocation_records_stages(saxpy_filter):
    xs = np.arange(8, dtype=np.float32)
    xs.setflags(write=False)
    saxpy_filter(xs)
    saxpy_filter(xs)
    assert saxpy_filter.launches == 2
    stages = saxpy_filter.profile.stages
    for field in ("java_marshal", "c_marshal", "opencl_setup", "transfer", "kernel"):
        assert getattr(stages, field) > 0, field


def test_bytes_accounted_both_directions(saxpy_filter):
    xs = np.arange(8, dtype=np.float32)
    xs.setflags(write=False)
    saxpy_filter(xs)
    profile = saxpy_filter.profile
    assert profile.metrics.get("transfer.bytes_to_device") == 8 * 4
    assert profile.metrics.get("transfer.bytes_from_device") == 8 * 4


def test_result_is_frozen_value_array(saxpy_filter):
    xs = np.arange(4, dtype=np.float32)
    xs.setflags(write=False)
    out = saxpy_filter(xs)
    assert not out.flags.writeable


def test_launch_config_respects_cap(monkeypatch):
    # The cap is resolved when the filter is built, so patch first.
    monkeypatch.delenv(glue.MAX_SIM_ITEMS_ENV, raising=False)
    monkeypatch.setattr(glue, "MAX_SIMULATED_ITEMS", 8)
    saxpy_filter = _saxpy(local_size=8)
    global_size, local = saxpy_filter._launch_config(1000)
    assert global_size == 8
    # Results stay correct because of the strided loop.
    xs = np.arange(20, dtype=np.float32)
    xs.setflags(write=False)
    out = saxpy_filter(xs)
    assert np.allclose(out, 2.5 * xs + 1.0)


def test_bound_values_flow_to_kernel():
    source = """
    class Scale {
        static local float[[]] apply(float a, float[[]] xs) {
            return Scale.one(a) @ xs;
        }
        static local float one(float x, float a) { return a * x; }
    }
    """
    checked = check_program(parse_program(source))
    cf = compile_filter(
        checked,
        checked.lookup_method("Scale", "apply"),
        device=get_device("gtx580"),
        bound_values={"a": 10.0},
        local_size=8,
    )
    xs = np.arange(4, dtype=np.float32)
    xs.setflags(write=False)
    assert np.allclose(cf(xs), 10.0 * xs)


def test_too_many_unbound_params_rejected():
    source = """
    class Two {
        static local float[[]] apply(float a, float[[]] xs) {
            return Two.one(a) @ xs;
        }
        static local float one(float x, float a) { return a * x; }
    }
    """
    checked = check_program(parse_program(source))
    with pytest.raises(RuntimeFault):
        compile_filter(
            checked,
            checked.lookup_method("Two", "apply"),
            device=get_device("gtx580"),
            bound_values=None,  # leaves two free parameters
        )


def test_np_dtype_mapping():
    from repro.backend.kernel_ir import K_CHAR, K_DOUBLE, K_FLOAT, K_INT

    assert glue.np_dtype(K_FLOAT) == np.float32
    assert glue.np_dtype(K_DOUBLE) == np.float64
    assert glue.np_dtype(K_INT) == np.int32
    assert glue.np_dtype(K_CHAR) == np.int8


def test_profile_shared_across_invocations():
    checked = check_program(parse_program(SAXPY_SOURCE))
    profile = ExecutionProfile()
    cf = compile_filter(
        checked,
        checked.lookup_method("Saxpy", "apply"),
        device=get_device("gtx580"),
        profile=profile,
        local_size=8,
    )
    xs = np.arange(4, dtype=np.float32)
    xs.setflags(write=False)
    cf(xs)
    assert profile.kernel_launches == 1
    assert "Saxpy.apply" in profile.per_task


def test_resolve_max_sim_items_precedence(monkeypatch):
    # explicit > environment > module constant
    monkeypatch.delenv(glue.MAX_SIM_ITEMS_ENV, raising=False)
    assert glue.resolve_max_sim_items() == glue.MAX_SIMULATED_ITEMS
    monkeypatch.setenv(glue.MAX_SIM_ITEMS_ENV, "128")
    assert glue.resolve_max_sim_items() == 128
    assert glue.resolve_max_sim_items(16) == 16


def test_resolve_max_sim_items_rejects_garbage(monkeypatch):
    monkeypatch.setenv(glue.MAX_SIM_ITEMS_ENV, "not-a-number")
    with pytest.raises(RuntimeFault):
        glue.resolve_max_sim_items()
    monkeypatch.setenv(glue.MAX_SIM_ITEMS_ENV, "0")
    with pytest.raises(RuntimeFault):
        glue.resolve_max_sim_items()


def test_env_cap_is_read_once_when_the_filter_is_built(monkeypatch):
    monkeypatch.setenv(glue.MAX_SIM_ITEMS_ENV, "8")
    saxpy_filter = _saxpy(local_size=8)
    assert saxpy_filter._launch_config(1000) == (8, 8)
    monkeypatch.setenv(glue.MAX_SIM_ITEMS_ENV, "512")
    assert saxpy_filter._launch_config(1000) == (8, 8)
    xs = np.arange(20, dtype=np.float32)
    xs.setflags(write=False)
    assert np.allclose(saxpy_filter(xs), 2.5 * xs + 1.0)


def test_explicit_cap_wins_over_env(monkeypatch):
    monkeypatch.setenv(glue.MAX_SIM_ITEMS_ENV, "512")
    checked = check_program(parse_program(SAXPY_SOURCE))
    cf = compile_filter(
        checked,
        checked.lookup_method("Saxpy", "apply"),
        device=get_device("gtx580"),
        local_size=8,
        max_sim_items=16,
    )
    global_size, _local = cf._launch_config(1000)
    assert global_size == 16


def test_options_keyword_replaces_one_field():
    options = OffloadOptions(
        config=OptimizationConfig(use_local=False),
        overlap=True,
        max_sim_items=64,
        exec_tier="per-item",
    )
    cf = _saxpy(options=options, local_size=8)
    assert cf.options == OffloadOptions(
        config=OptimizationConfig(use_local=False),
        local_size=8,
        overlap=True,
        max_sim_items=64,
        exec_tier="per-item",
    )
    assert cf.local_size == 8


def test_options_defaults_fill_none(monkeypatch):
    monkeypatch.delenv(glue.MAX_SIM_ITEMS_ENV, raising=False)
    monkeypatch.delenv(EXEC_TIER_ENV, raising=False)
    options = OffloadOptions(config=None)
    assert options == OffloadOptions()
    assert options.config == OptimizationConfig()
    assert options.max_sim_items == glue.MAX_SIMULATED_ITEMS
    assert options.exec_tier == "auto"


def test_unknown_option_is_a_type_error():
    with pytest.raises(TypeError):
        OffloadOptions(max_items=8)
    with pytest.raises(TypeError):
        _saxpy(max_items=8)
