"""The three workloads, the unit each one times, and the output checks.

Why each workload was chosen, and which layer metric should move which
end-to-end metric on which workload, is in ``README.md`` beside this
file.

A unit is one cold end-to-end run of one program, as ``repro run APP``
does it in a fresh process: a fresh parse and typecheck (a copied
``Benchmark`` with ``_checked=None``), an empty in-memory kernel cache,
and ``repro run``'s defaults (gtx580, scale 0.3, default
``OptimizationConfig``, tier ``auto``, fuse ``off``, the app's own
``steps``, the default work-item cap). The caller unsets every
``REPRO_*`` variable before the first unit.

A ``fleet-journal`` unit has two phases, each what one ``repro run``
process does::

    repro run APP --steps DEEP --devices gtx580,hd5970,gtx8800,core-i7 \\
        --journal DIR --faults 0.02 --fault-seed S \\
        --kill-device hd5970:5 --fuse resident          # record
    repro run APP ... --resume                          # resume

The resume phase starts like a restarted process: the in-memory kernel
cache is empty and the program is parsed again, so its kernels come
from the journal's on-disk store and its items from the journal.
"""

import dataclasses
import os

import numpy as np

SCALE = 0.3
TARGET = "gtx580"
FLEET_DEVICES = ("gtx580", "hd5970", "gtx8800", "core-i7")
FAULT_RATE = 0.02
KILL_DEVICES = {"hd5970": 5}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    programs: tuple
    # Span names the traced run must see at least once.
    required: tuple
    # fleet-journal only: app -> steps multiplier over the app's own.
    deep_steps: dict = None

    @property
    def fleet(self):
        return self.deep_steps is not None


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "tiled",
            ("mosaic", "parboil-cp", "nbody-single", "nbody-double",
             "parboil-mriq"),
            required=("executor.per_item",),
        ),
        Workload(
            "flat",
            ("jg-crypt", "jg-series-single", "jg-series-double",
             "parboil-rpes", "pipeline3"),
            required=("executor.batch",),
        ),
        Workload(
            "fleet-journal",
            ("pipeline3", "parboil-rpes", "jg-crypt", "jg-series-single"),
            required=("journal.call", "fleet.call", "resilience.call"),
            deep_steps={
                "pipeline3": 4,
                "parboil-rpes": 4,
                "jg-crypt": 8,
                "jg-series-single": 8,
            },
        ),
    )
}

# The app whose NumPy reference models a whole => chain is checked
# against the chain's last filter; every other reference models the
# app's own filter_method.
_REFERENCE_METHOD = {"pipeline3": "sharpen"}


def steps_for(workload, app):
    """Stream depth of ``app`` in ``workload``; None is the app's own."""
    if not workload.fleet:
        return None
    from repro.apps.registry import ALL_BENCHMARKS

    return ALL_BENCHMARKS[app].steps * workload.deep_steps[app]


def seeded_benchmark(app, arrays):
    """A copy of the app's ``Benchmark`` that hands the program only
    ``arrays`` and has not been parsed yet."""
    from repro.apps.registry import ALL_BENCHMARKS

    def make_input(scale=SCALE):
        if scale != SCALE:
            raise ValueError("inputs were generated at scale {}".format(SCALE))
        return list(arrays)

    return dataclasses.replace(
        ALL_BENCHMARKS[app], make_input=make_input, _checked=None
    )


def solo_unit(app, arrays, steps=None):
    """``repro run APP`` with its defaults."""
    from repro.evaluation.harness import run_configuration
    from repro.opencl import kernel_cache

    kernel_cache.configure_disk_store(None)
    kernel_cache.reset_global_cache()
    return run_configuration(
        seeded_benchmark(app, arrays), TARGET, scale=SCALE, steps=steps
    )


def fleet_phase(app, arrays, steps, fault_seed, journal_dir, resume):
    """One phase of a ``fleet-journal`` unit (see the module doc)."""
    from repro.evaluation.harness import run_configuration
    from repro.opencl import kernel_cache
    from repro.runtime.resilience import ResiliencePolicy

    kernel_cache.configure_disk_store(os.path.join(journal_dir, "kernels"))
    kernel_cache.reset_global_cache()
    resilience = ResiliencePolicy.from_flags(
        fault_rate=FAULT_RATE, seed=fault_seed, kill_devices=KILL_DEVICES
    )
    return run_configuration(
        seeded_benchmark(app, arrays),
        TARGET,
        scale=SCALE,
        steps=steps,
        resilience=resilience,
        devices=list(FLEET_DEVICES),
        fleet_policy="health",
        fleet_schedule="concurrent",
        journal=journal_dir,
        resume=resume,
        fuse="resident",
    )


def reference_task(app):
    from repro.apps.registry import ALL_BENCHMARKS

    bench = ALL_BENCHMARKS[app]
    return "{}.{}".format(
        bench.main_class, _REFERENCE_METHOD.get(app, bench.filter_method)
    )


def outputs_match(out, ref):
    """The tolerance of the app tests' ``assert_matches``: floats within
    rtol 2e-3 / atol 1e-4, everything else exactly."""
    out = np.asarray(out)
    ref = np.asarray(ref)
    if out.shape != ref.shape:
        return False
    if out.dtype.kind == "f":
        return bool(np.allclose(out, ref, rtol=2e-3, atol=1e-4))
    return bool(np.array_equal(out, ref))


def check_outputs(app, arrays, captured, steps):
    """Problems with the filter outputs ``captured`` in one solo run
    (``(task, value)`` pairs), checked against the app's NumPy
    reference on the same inputs: one output per stream item."""
    from repro.apps.registry import ALL_BENCHMARKS

    bench = ALL_BENCHMARKS[app]
    task = reference_task(app)
    outs = [value for name, value in captured if name == task]
    steps = bench.steps if steps is None else steps
    if len(outs) != steps:
        return ["{}: {} outputs of {}, want {}".format(
            app, len(outs), task, steps)]
    ref = bench.reference(*arrays)
    bad = sum(not outputs_match(out, ref) for out in outs)
    if bad:
        return ["{}: {} of {} outputs of {} differ from the NumPy "
                "reference".format(app, bad, steps, task)]
    return []
