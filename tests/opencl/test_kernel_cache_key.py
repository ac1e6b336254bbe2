"""The kernel cache key is complete: derived here, not asserted.

The cache keys a compiled kernel on its IR fingerprint alone, which is
sound only while nothing but the IR reaches codegen. This test
compiles every filter kernel of every app, pipeline3's fused kernel
included, under every device, option set and sanitizer setting, each
combination into a fresh cache. It then groups the artifacts by
fingerprint: within a group, every generated source and every other
artifact field must be identical. A future codegen input that is not
part of the IR fails here instead of being shared silently.
"""

import itertools
from dataclasses import replace

from repro.apps.registry import ALL_BENCHMARKS
from repro.compiler.options import OptimizationConfig
from repro.compiler.pipeline import compile_filter, compile_fused_filter
from repro.evaluation.perfbench import nolocal_config
from repro.frontend import ast
from repro.opencl.device import DEVICES
from repro.opencl.kernel_cache import kernel_fingerprint, reset_global_cache
from repro.runtime.sanitizer import SanitizerConfig

CONFIGS = {
    "default": OptimizationConfig(),
    "nolocal": nolocal_config(),
    "noconstant": replace(OptimizationConfig(), use_constant=False),
    "novector": replace(OptimizationConfig(), vectorize=False),
}
SANITIZERS = {"none": None, "sanitize": SanitizerConfig()}
# Apps whose filter chain also compiles into one fused kernel.
FUSED_CHAINS = ("pipeline3",)


def filter_workers(bench):
    """The static ``local`` workers an app's task graph offloads."""
    checked = bench.checked()
    tasks = dict.fromkeys(
        (node.class_name, node.method_name)
        for cls in checked.program.classes
        for method in cls.methods
        for node in ast.walk(method.body)
        if isinstance(node, ast.TaskExpr) and node.is_static_worker
    )
    workers = [checked.lookup_method(*task) for task in tasks]
    return [worker for worker in workers if worker.is_local]


def compile_app(name, **options):
    """``(lowered IR, compiled kernel)`` for each kernel of one app."""
    bench = ALL_BENCHMARKS[name]
    checked = bench.checked()
    workers = filter_workers(bench)
    filters = [
        compile_filter(
            checked,
            worker,
            bound_values={p.name: 4 for p in worker.params[:-1]},
            **options,
        )
        for worker in workers
    ]
    if name in FUSED_CHAINS:
        members = [(worker, {}) for worker in workers]
        filters.append(compile_fused_filter(checked, members, **options))
    return [(cf.plan.kernel, cf.compiled_kernel) for cf in filters]


def test_artifacts_sharing_a_fingerprint_are_identical():
    groups = {}
    for device, config, sanitizer in itertools.product(
        DEVICES, CONFIGS, SANITIZERS
    ):
        reset_global_cache()
        options = dict(
            device=DEVICES[device],
            config=CONFIGS[config],
            sanitizer=SANITIZERS[sanitizer],
        )
        for name in ALL_BENCHMARKS:
            label = (name, device, config, sanitizer)
            first = compile_app(name, **options)
            # Lowering is deterministic and the IR's repr structural: a
            # second lowering has the same fingerprint, so it hits.
            again = compile_app(name, **options)
            for (ir, compiled), (ir2, compiled2) in zip(first, again):
                assert kernel_fingerprint(ir2) == kernel_fingerprint(ir), label
                assert compiled2 is compiled, label
                compiled._sanitized_item()
                artifact = compiled.artifact()
                del artifact["kernel"]
                groups.setdefault(kernel_fingerprint(ir), []).append(
                    (label, artifact)
                )

    # Not vacuous: devices, options and sanitizers do share IRs.
    assert len(groups) < sum(len(members) for members in groups.values())
    for members in groups.values():
        (label, reference), rest = members[0], members[1:]
        for other, artifact in rest:
            for field in reference:
                assert artifact[field] == reference[field], (
                    field, label, other,
                )
