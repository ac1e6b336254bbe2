"""Documentation drift guards.

The README's CLI flag reference and the argparse definitions in
``repro.cli`` must agree: every subcommand and every long flag that
``repro <cmd> --help`` reports has to appear in README.md, and the
README must not document flags that no longer exist. DESIGN.md's
package-layout section likewise has to name every runtime-layer module.
CI runs this as the docs-consistency job.
"""

import argparse
import ast
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text()
DESIGN = (ROOT / "DESIGN.md").read_text()


def _subcommands():
    parser = build_parser()
    (sub,) = [
        a
        for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return sub.choices  # {name: subparser}


def _long_flags(subparser):
    flags = set()
    for action in subparser._actions:
        for opt in action.option_strings:
            if opt.startswith("--"):
                flags.add(opt)
    flags.discard("--help")
    return flags


def test_every_subcommand_documented_in_readme():
    for name in _subcommands():
        assert "`{}".format(name) in README or "repro {}".format(
            name
        ) in README, "subcommand '{}' missing from README.md".format(name)


def test_every_cli_flag_documented_in_readme():
    missing = []
    for name, subparser in _subcommands().items():
        for flag in _long_flags(subparser):
            if flag not in README:
                missing.append("{} {}".format(name, flag))
    assert not missing, (
        "flags in `repro <cmd> --help` but not README.md: "
        + ", ".join(sorted(missing))
    )


def test_readme_flag_table_has_no_stale_flags():
    """Every flag named in the README's reference table must still
    exist on the corresponding subcommand."""
    section = README.split("Full flag reference", 1)[1]
    rows, in_table = [], False
    for line in section.splitlines():
        if line.startswith("|"):
            in_table = True
            rows.append(line)
        elif in_table:
            break  # first table after the heading only
    table_rows = re.findall(
        r"^\| `([\w-]+)[^`]*` \| (.+) \|$", "\n".join(rows), re.M
    )
    assert table_rows, "README flag-reference table not found"
    commands = _subcommands()
    for name, flags_cell in table_rows:
        assert name in commands, (
            "README documents unknown subcommand '{}'".format(name)
        )
        documented = set(re.findall(r"--[\w-]+", flags_cell))
        actual = _long_flags(commands[name])
        stale = documented - actual
        assert not stale, "README documents stale flags for '{}': {}".format(
            name, sorted(stale)
        )
        assert documented == actual, (
            "README flag table incomplete for '{}': missing {}".format(
                name, sorted(actual - documented)
            )
        )


@pytest.mark.parametrize(
    "module",
    sorted(
        p.name
        for p in (ROOT / "src" / "repro" / "runtime").glob("*.py")
        if p.name != "__init__.py"
    ),
)
def test_design_names_every_runtime_module(module):
    assert module in DESIGN, (
        "runtime module {} missing from DESIGN.md package layout".format(
            module
        )
    )


def test_design_names_satellite_modules():
    for module in ("kernel_cache.py", "perfbench.py", "sanitizer.py",
                   "tracing.py", "resilience.py"):
        assert module in DESIGN


def test_observability_doc_exists_and_covers_span_taxonomy():
    doc = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    # Span names emitted by the instrumentation.
    for span in ("item", "kernel", "java_marshal", "c_marshal",
                 "transfer", "opencl_setup", "compile", "cache_lookup",
                 "device", "sanitizer_scan", "retry_backoff",
                 "host_compute", "validate"):
        assert "`{}`".format(span) in doc, (
            "span '{}' undocumented in OBSERVABILITY.md".format(span)
        )
    # Canonical metric names.
    for metric in ("recovery.faults", "recovery.retries",
                   "recovery.demotions", "guards.validations",
                   "guards.mismatches", "executor.launches.",
                   "cache.hits", "cache.misses",
                   "transfer.bytes_to_device", "task.invoke_ns",
                   "kernel.launch_ns"):
        assert metric in doc, (
            "metric '{}' undocumented in OBSERVABILITY.md".format(metric)
        )


def test_observability_doc_covers_queue_instrumentation():
    doc = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    assert "`queue`" in doc, "queue span undocumented"
    for metric in ("queue.submitted.", "queue.completed.",
                   "queue.busy_ns.", "queue.wait_ns."):
        assert metric in doc, (
            "metric '{}' undocumented in OBSERVABILITY.md".format(metric)
        )


def test_observability_doc_covers_fusion_instrumentation():
    doc = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    for span in ("fusion_chain", "fusion_fused", "fusion_declined",
                 "marshal_elided", "resident_settle"):
        assert "`{}`".format(span) in doc, (
            "span '{}' undocumented in OBSERVABILITY.md".format(span)
        )
    for metric in ("fusion.chains", "fusion.fused_kernels",
                   "fusion.declined.", "fusion.elisions",
                   "fusion.rematerialized", "transfer.bytes_saved"):
        assert metric in doc, (
            "metric '{}' undocumented in OBSERVABILITY.md".format(metric)
        )


def _executor_reasons():
    """Every decline reason ``opencl/executor.py`` can report: each
    ``_Ineligible(...)`` literal (the batch tier)."""
    tree = ast.parse(
        (ROOT / "src" / "repro" / "opencl" / "executor.py").read_text()
    )
    reasons = set()
    for node in ast.walk(tree):
        called = getattr(node, "func", None)
        if getattr(called, "id", None) == "_Ineligible":
            reasons.add(node.args[0].value)
    return reasons


def test_observability_doc_names_every_decline_reason():
    doc = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    reasons = _executor_reasons()
    assert "local-memory tiling" in reasons
    missing = sorted(r for r in reasons if "`{}`".format(r) not in doc)
    assert not missing, (
        "decline reasons undocumented in OBSERVABILITY.md: "
        + ", ".join(missing)
    )


def test_fusion_doc_covers_planner_contract():
    doc = (ROOT / "docs" / "FUSION.md").read_text()
    # The flag surface and the three modes.
    for term in ("--fuse", "REPRO_FUSE", "`--fuse off`",
                 "`--fuse resident`", "`--fuse kernel`"):
        assert term in doc, "'{}' missing from docs/FUSION.md".format(term)
    # Every typed decline reason the planner can emit.
    for reason in ("scalar_boundary", "type_mismatch", "multi_consumer",
                   "no_stream_param", "consumer_reduce", "rate_mismatch",
                   "array_intermediate", "gather", "param_collision",
                   "barrier", "divergence", "rejected"):
        assert "`{}`".format(reason) in doc, (
            "decline reason '{}' missing from docs/FUSION.md".format(reason)
        )
    # The buffer lifecycle and its settlement contract.
    for term in ("plan", "acquire", "release", "settle_resident",
                 "fusion.rematerialized", "transfer.bytes_saved",
                 "ResidentMeta"):
        assert term in doc, "'{}' missing from docs/FUSION.md".format(term)
    # The harness the contract is enforced by.
    for path in ("tests/compiler/test_fusion_pass.py",
                 "tests/runtime/test_fusion_elision.py",
                 "benchmarks/perf/test_fusion_comm.py"):
        assert path in doc
        assert (ROOT / path).exists(), (
            "FUSION.md references missing file {}".format(path)
        )


def test_docs_index_lists_every_docs_file():
    index = (ROOT / "docs" / "INDEX.md").read_text()
    for doc in sorted((ROOT / "docs").glob("*.md")):
        if doc.name == "INDEX.md":
            continue
        assert "[{}]({})".format(doc.name, doc.name) in index, (
            "docs/{} is not linked from docs/INDEX.md".format(doc.name)
        )
    assert "docs/INDEX.md" in README, (
        "README.md does not link the docs/INDEX.md landing page"
    )


def test_concurrency_doc_covers_queue_model():
    doc = (ROOT / "docs" / "CONCURRENCY.md").read_text()
    # The queue model and both dispatch schedules.
    for term in ("CommandQueue", "`concurrent`", "`sequential`",
                 "makespan", "dispatch_seed", "--fleet-schedule",
                 "queue_context"):
        assert term in doc, (
            "'{}' missing from docs/CONCURRENCY.md".format(term)
        )
    # The determinism contract's three clauses.
    for term in ("schedule-INVARIANT", "schedule-DETERMINISTIC",
                 "restore"):
        assert term in doc, (
            "determinism contract clause '{}' missing from "
            "docs/CONCURRENCY.md".format(term)
        )
    # The harness the contract is enforced by.
    for path in ("tests/runtime/schedutil.py",
                 "tests/runtime/test_schedule_fuzz.py",
                 "tests/runtime/test_trace_invariants.py",
                 "benchmarks/perf/test_fleet_makespan.py"):
        assert path in doc
        assert (ROOT / path).exists(), (
            "CONCURRENCY.md references missing file {}".format(path)
        )


def test_observability_doc_covers_hedging_instrumentation():
    doc = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    for span in ("hedge", "vote_mismatch"):
        assert "`{}`".format(span) in doc, (
            "span '{}' undocumented in OBSERVABILITY.md".format(span)
        )
    for metric in ("hedge.launched", "hedge.won", "hedge.cancelled",
                   "hedge.wasted_ns", "queue.cancelled.",
                   "vote.launched", "vote.agreed", "vote.mismatch",
                   "vote.skipped", "vote.errors"):
        assert metric in doc, (
            "metric '{}' undocumented in OBSERVABILITY.md".format(metric)
        )


def test_hedging_doc_covers_contract():
    doc = (ROOT / "docs" / "HEDGING.md").read_text()
    # The flag surface.
    for flag in ("--hedge", "--hedge-quantile", "--hedge-factor",
                 "--redundancy", "--slow-device"):
        assert flag in doc, (
            "'{}' missing from docs/HEDGING.md".format(flag)
        )
    # The budget, settlement, and conservation contract.
    for term in ("kernel.launch_ns", "hedge_min_samples", "backdated",
                 "hedge.wasted_ns", "queue.cancelled.",
                 "fusion.rematerialized", "hedge-lost", "hedge-won",
                 "hedge-cancelled", "VoteMismatchFault",
                 "vote.skipped"):
        assert term in doc, (
            "'{}' missing from docs/HEDGING.md".format(term)
        )
    # The harness the contract is enforced by.
    for path in ("tests/runtime/test_hedging.py",
                 "tests/runtime/test_fleet_queues.py",
                 "tests/runtime/test_latency_faults.py",
                 "tests/runtime/test_schedule_fuzz.py",
                 "benchmarks/perf/test_tail_tolerance.py"):
        assert path in doc
        assert (ROOT / path).exists(), (
            "HEDGING.md references missing file {}".format(path)
        )
