"""Golden simulated kernel time: the timing model pinned launch by launch.

Traces are captured once on the GTX 580 — each Figure 8 benchmark under
four of its memory configurations, and all ten apps under the default
configuration — and every launch is timed on all four device models.
``tests/golden/timing_ns.json`` holds, per launch and device,
``repr(kernel_ns)`` and every :class:`SiteStats` field of every site
(in field order, the space by its value).

A change to the timing model's implementation must leave this file
untouched; a change to the model itself re-blesses it with::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/opencl/test_timing_golden.py
"""

import dataclasses
import json
import os
import pathlib

import pytest

from repro.apps.registry import ALL_BENCHMARKS, BENCHMARKS, FIGURE8_BENCHMARKS
from repro.backend.glue import MAX_SIM_ITEMS_ENV
from repro.backend.kernel_ir import Space
from repro.compiler.options import FIGURE8_CONFIGS
from repro.evaluation.figure8 import measure_compiled_kernel
from repro.evaluation.harness import run_configuration
from repro.opencl.device import DEVICES
from repro.opencl.timing import SiteStats, time_launch

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden" / "timing_ns.json"

SCALE = 0.05
MAX_SIM_ITEMS = 256

FIGURE8_SUBSET = ["Global", "Local+NoConflicts+Vector", "Constant", "Texture"]

CASES = [
    "figure8:{}:{}".format(name, config)
    for name in FIGURE8_BENCHMARKS
    for config in FIGURE8_SUBSET
] + ["app:{}".format(name) for name in sorted(ALL_BENCHMARKS)]

FIELDS = [f.name for f in dataclasses.fields(SiteStats)]


def _run(case, monkeypatch):
    kind, name, *config = case.split(":")
    if kind == "figure8":
        monkeypatch.setenv(MAX_SIM_ITEMS_ENV, str(MAX_SIM_ITEMS))
        measure_compiled_kernel(
            BENCHMARKS[name], "gtx580", FIGURE8_CONFIGS[config[0]], scale=SCALE
        )
    else:
        run_configuration(
            ALL_BENCHMARKS[name],
            "gtx580",
            scale=SCALE,
            steps=1,
            max_sim_items=MAX_SIM_ITEMS,
        )


def _site_fields(stats):
    """The stats in field order: the space by its value, the counts as
    Python ints whatever integer type the model summed them in."""
    return [
        value.value if isinstance(value, Space)
        else value if isinstance(value, bool)
        else int(value)
        for value in (getattr(stats, name) for name in FIELDS)
    ]


def _timed(case, traces):
    """``{"<case>#<launch>@<device>": {"kernel_ns", "sites"}}``."""
    got = {}
    for index, trace in enumerate(traces):
        for device_name, device in sorted(DEVICES.items()):
            timing = time_launch(trace, device)
            got["{}#{}@{}".format(case, index, device_name)] = {
                "kernel_ns": repr(float(timing.kernel_ns)),
                "sites": {
                    str(site): _site_fields(stats)
                    for site, stats in sorted(timing.site_stats.items())
                },
            }
    return got


def _dump(golden):
    rows = [
        "  {}: {}".format(
            json.dumps(key), json.dumps(value, sort_keys=True, separators=(",", ":"))
        )
        for key, value in sorted(golden.items())
    ]
    return "{\n" + ",\n".join(rows) + "\n}\n"


@pytest.mark.parametrize("case", CASES)
def test_golden_kernel_time(case, captured_traces, monkeypatch):
    _run(case, monkeypatch)
    assert captured_traces, "{} launched no kernel".format(case)
    got = _timed(case, captured_traces)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        golden = {k: v for k, v in golden.items() if not k.startswith(case + "#")}
        golden["_fields"] = FIELDS
        golden.update(got)
        GOLDEN.write_text(_dump(golden))
        return
    assert golden.get("_fields") == FIELDS, (
        "SiteStats fields changed; re-bless {} with REPRO_UPDATE_GOLDEN=1".format(
            GOLDEN.name
        )
    )
    expected = {k: v for k, v in golden.items() if k.startswith(case + "#")}
    assert expected, (
        "missing timing golden entries for {} — run with "
        "REPRO_UPDATE_GOLDEN=1 to create them".format(case)
    )
    assert sorted(got) == sorted(expected), "launch count of {} changed".format(case)
    for key in sorted(got):
        assert got[key] == expected[key], (
            "simulated kernel time of {} drifted from {}: {} != {} — if "
            "the timing model changed on purpose, re-bless with "
            "REPRO_UPDATE_GOLDEN=1".format(key, GOLDEN.name, got[key], expected[key])
        )
