"""Tests for the benchmark's own helpers: ``python3 -m pytest repobench``."""

import json
import os
import re
import sys
import threading

import numpy as np
import pytest

import refspeed
import run
import spans
from inputs import GENERATORS, make_inputs
from workloads import SCALE, WORKLOADS, outputs_match

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- seeded inputs ------------------------------------------------------------


@pytest.mark.parametrize("app", sorted(GENERATORS))
def test_generator_matches_make_input_layout(app):
    from repro.apps.registry import ALL_BENCHMARKS

    want = ALL_BENCHMARKS[app].make_input(scale=SCALE)
    got = make_inputs(app, seed=3, scale=SCALE)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert g.shape == w.shape
            assert g.dtype == w.dtype
            assert g.flags.c_contiguous and not g.flags.writeable
        else:
            assert g == w


@pytest.mark.parametrize("app", sorted(GENERATORS))
def test_generator_is_deterministic_per_seed(app):
    a = make_inputs(app, seed=5, scale=SCALE)
    b = make_inputs(app, seed=5, scale=SCALE)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize(
    "app", [a for a in sorted(GENERATORS) if not a.startswith("jg-series")]
)
def test_generator_draws_from_the_seed(app):
    a = make_inputs(app, seed=5, scale=SCALE)
    b = make_inputs(app, seed=6, scale=SCALE)
    assert not np.array_equal(a[0], b[0])


@pytest.mark.parametrize("seed", range(4))
def test_generator_value_constraints(seed):
    from repro.apps.jg_crypt import expand_key
    from repro.apps.parboil_cp import GRID_SPACING, GRID_W
    from repro.apps.parboil_rpes import QUAD_ROOTS

    for app in ("nbody-single", "nbody-double"):
        (particles,) = make_inputs(app, seed, SCALE)
        assert (particles[:, 3] >= 0.05).all()
        assert (np.abs(particles[:, :3]) <= 1.0).all()
    (atoms,) = make_inputs("parboil-cp", seed, SCALE)
    span = GRID_W * GRID_SPACING
    # The app's z offset and charge map, applied to uniform [0, span).
    assert (atoms[:, 2] >= 0.2).all() and (atoms[:, 2] <= 0.2 + span / 2).all()
    assert (atoms[:, 3] >= -1.0).all() and (atoms[:, 3] <= 2 * span - 1).all()
    voxels, kspace = make_inputs("parboil-mriq", seed, SCALE)
    assert (voxels[:, 3] == 0.0).all()
    assert (np.abs(kspace) <= 0.5).all()
    (table,) = make_inputs("parboil-rpes", seed, SCALE)
    n = table.shape[0]
    base = (table[:, 3] * 0.25).astype(int)
    assert (base + QUAD_ROOTS <= n).all()
    blocks, key = make_inputs("jg-crypt", seed, SCALE)
    assert np.array_equal(key, expand_key())
    assert blocks.min() >= -128 and blocks.max() <= 127
    (tiles,) = make_inputs("mosaic", seed, SCALE)
    assert tiles.min() >= 0 and tiles.max() <= 255


def test_every_workload_program_has_a_generator():
    for wl in WORKLOADS.values():
        assert set(wl.programs) <= set(GENERATORS)


def test_outputs_match_uses_the_app_test_tolerance():
    ref = np.array([1.0, 2.0], dtype=np.float32)
    assert outputs_match(ref * (1 + 1e-3), ref)
    assert not outputs_match(ref * (1 + 1e-2), ref)
    assert not outputs_match(np.array([1, 2]), np.array([1, 3]))
    assert not outputs_match(ref[:1], ref)


# -- reference speed ----------------------------------------------------------


def test_scale_to_reference_divides_by_the_mean_loop():
    nominal = refspeed.REF_NOMINAL_MS
    assert refspeed.scale_to_reference(3.0, [nominal]) == pytest.approx(3.0)
    # The machine ran at half speed: the loop took twice as long.
    assert refspeed.scale_to_reference(3.0, [nominal * 1.5, nominal * 2.5]) == (
        pytest.approx(1.5)
    )
    with pytest.raises(ValueError):
        refspeed.scale_to_reference(1.0, [])


def test_window_keeps_loops_near_the_segment():
    refs = [(0.0, 1.0), (4.0, 2.0), (10.0, 3.0), (21.0, 4.0)]
    assert refspeed.window(refs, 9.0, 11.0, width=5.0) == [2.0, 3.0]
    assert refspeed.window(refs, 9.0, 16.0, width=5.0) == [2.0, 3.0, 4.0]


def test_yardstick_scales_each_segment_by_its_window():
    ys = refspeed.Yardstick()
    ys.refs = [(0.0, 80.0), (100.0, 20.0)]
    slow = refspeed.Segment(1.0, 2.0, 4.0)
    fast = refspeed.Segment(98.0, 99.0, 1.0)
    assert ys.scaled_s(slow) == pytest.approx(2.0)
    assert ys.scaled_s(fast) == pytest.approx(2.0)
    assert ys.ref_ms() == 50.0


def test_measure_times_the_work():
    ys = refspeed.Yardstick()
    result, segment = ys.measure(refspeed._ref_work, 200)
    assert result == refspeed._ref_work(200)
    assert segment.cpu_s > 0 and segment.end >= segment.start


def test_reference_loop_refuses_a_trace_hook():
    sys.settrace(lambda *a: None)
    try:
        with pytest.raises(RuntimeError):
            refspeed.reference_loop_ms(100)
    finally:
        sys.settrace(None)
    assert refspeed.reference_loop_ms(100) > 0


def test_reference_loop_refuses_a_second_thread():
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(10,))
    other.start()
    try:
        with pytest.raises(RuntimeError):
            refspeed.reference_loop_ms(100)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


# -- spans and self time ------------------------------------------------------


def _span(name, parent, segment, cpu0, cpu1, wall0=None, wall1=None):
    return [name, parent, segment, cpu0, cpu1,
            cpu0 if wall0 is None else wall0, cpu1 if wall1 is None else wall1]


def test_self_time_subtracts_direct_children_only():
    recorded = [
        _span("segment", -1, 0, 0.0, 10.0),
        _span("glue.run_prepared", 0, 0, 1.0, 7.0),
        _span("executor.per_item", 1, 0, 2.0, 5.0),
        _span("marshal.serialize", 1, 0, 5.0, 6.0),
        _span("timing.time_launch", 0, 0, 7.0, 9.0),
        _span("segment", -1, 1, 20.0, 21.0),
    ]
    got = spans.self_times(recorded)
    assert got[0]["segment"] == (pytest.approx(2.0), 1)
    assert got[0]["glue.run_prepared"] == (pytest.approx(2.0), 1)
    assert got[0]["executor.per_item"] == (pytest.approx(3.0), 1)
    assert got[0]["timing.time_launch"] == (pytest.approx(2.0), 1)
    assert got[1] == {"segment": (pytest.approx(1.0), 1)}
    total = sum(cpu for cpu, _ in got[0].values())
    assert total == pytest.approx(10.0)


def test_wall_minus_cpu_sums_waits_per_segment():
    recorded = [
        _span("journal.record", -1, 0, 0.0, 1.0, 0.0, 3.0),
        _span("journal.record", -1, 0, 1.0, 2.0, 3.0, 4.5),
        _span("journal.call", -1, 1, 0.0, 1.0, 0.0, 9.0),
    ]
    assert spans.wall_minus_cpu(recorded, "journal.record") == {
        0: pytest.approx(2.5)
    }


def test_recorder_nests_calls_and_names_launch_by_tier():
    class Trace:
        tier = "batch"
        global_size = 64

    rec = spans.SpanRecorder()
    with rec.segment(7):
        rec.call("glue.run_prepared",
                 lambda: rec.call("executor.launch", Trace, (), {},
                                  spans._on_launch),
                 (), {})
    names = [(s[0], s[1], s[2]) for s in rec.spans]
    assert names == [("segment", -1, 7), ("glue.run_prepared", 0, 7),
                     ("executor.batch", 1, 7)]
    assert rec.counts[7]["executor.work_items"] == 64


def test_traced_restores_every_patched_name():
    import importlib

    before = []
    for module_name, owner_name, attr, _, _ in spans._PATCHES:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        before.append((owner, attr, vars(owner)[attr]))
    with spans.traced(spans.SpanRecorder()):
        assert all(vars(o)[a] is not f for o, a, f in before)
    assert all(vars(o)[a] is f for o, a, f in before)


def test_every_span_layer_is_a_reported_metric():
    for metric in spans.LAYER_OF.values():
        if metric == "journal.ms":  # split into record and replay by phase
            continue
        assert metric in run.PER_LAYER


# -- metric names and the benchmark file ---------------------------------------


def test_metric_names_use_only_allowed_characters():
    for name in list(run.END_TO_END) + list(run.PER_LAYER):
        assert NAME.match(name), name


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
