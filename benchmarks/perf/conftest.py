"""Perf-harness configuration (see ``benchmarks/conftest.py``).

This sub-directory times the simulator's own wall clock rather than
simulated nanoseconds, but shares the parent harness's conventions:
REPRO_BENCH_SCALE sizes the workloads, and results land in
``benchmarks/results/`` as JSON.
"""

import json
import os
import pathlib
import sys

from repro.ioutil import atomic_write

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[1] / "results"

# The timing-model gate times analyze_site against the reference
# aggregation kept with the tests (tests/opencl/timing_reference.py).
REPO_ROOT = str(pathlib.Path(__file__).resolve().parents[2])
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)


def record_result(name, payload):
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "{}.json".format(name)
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    atomic_write(path, text + "\n")
    return path
