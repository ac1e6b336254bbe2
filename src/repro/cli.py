"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``devices`` — list the simulated device catalog (Table 2).
- ``compile FILE`` — compile every offloadable filter in a Lime source
  file and print the generated OpenCL C (with ``--config`` to pick a
  Figure 8 configuration and ``--device`` for the memory plan).
- ``format FILE`` — parse and pretty-print a Lime source file.
- ``tune FILE CLASS.METHOD`` — auto-tune a filter over the optimization
  space on synthetic input.
- ``figures [7|8|9|tables]`` — regenerate the paper's evaluation
  artifacts at a chosen ``--scale``.
- ``serve`` — the multi-tenant serving daemon: many named sessions run
  concurrently on one shared device fleet with per-tenant admission
  control, bounded-queue load shedding, session deadlines, and a
  SIGTERM drain that journals every session for ``--resume``.
- ``serve-bench`` — the serving load generator: clean vs chaos
  (fault-injection + device-kill) phases over the same workload;
  writes ``BENCH_serving.json`` with sessions/sec and p99 latency.
- ``run BENCHMARK`` — run one benchmark end to end against a target,
  optionally with fault injection (``--faults P --fault-seed N``),
  guarded execution (``--sanitize --deadline-ns T``), differential
  validation (``--validate-every N``), and an execution-tier override
  (``--exec-tier batch|per-item``), and print the stage breakdown,
  executor/cache counters, plus the failure ledger.
- ``bench`` — time the executor tiers (host interpreter vs per-item vs
  batch) per app with the capture-and-replay micro-harness and write
  ``BENCH_executor.json``.
- ``trace FILE [FILE2]`` — pretty-print a trace written by
  ``run --trace-out`` / ``bench --trace-out`` as a terminal flame
  summary, or diff two trace files span-name by span-name.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError


def _load_program(path):
    from repro.frontend import check_program, parse_program

    with open(path) as fh:
        source = fh.read()
    return check_program(parse_program(source, filename=path))


def cmd_devices(_args):
    from repro.evaluation.tables import table2

    print(table2())
    return 0


def cmd_compile(args):
    from repro.backend.opencl_gen import emit_opencl
    from repro.compiler.options import FIGURE8_CONFIGS, OptimizationConfig
    from repro.compiler.pipeline import compile_filter
    from repro.errors import KernelRejected
    from repro.opencl import get_device

    checked = _load_program(args.file)
    device = get_device(args.device)
    config = (
        FIGURE8_CONFIGS[args.config] if args.config else OptimizationConfig()
    )
    compiled_any = False
    rejections = []
    for cls in checked.program.classes:
        for method in cls.methods:
            if not (method.is_static and method.is_local):
                continue
            try:
                compiled = compile_filter(
                    checked, method, device=device, config=config
                )
            except KernelRejected as reason:
                rejections.append((method.qualified_name, str(reason)))
                continue
            if compiled.plan is None:
                continue
            compiled_any = True
            print("// filter: {}  device: {}  config: {}".format(
                method.qualified_name, device.name, config.describe()
            ))
            print(emit_opencl(compiled.plan.kernel, local_size_hint=128))
            print()
    if not compiled_any:
        print("no offloadable filters found in {}".format(args.file))
        for name, reason in rejections:
            print("  {}: {}".format(name, reason))
        return 1
    return 0


def cmd_format(args):
    from repro.frontend import parse_program
    from repro.frontend.printer import print_program

    with open(args.file) as fh:
        source = fh.read()
    sys.stdout.write(print_program(parse_program(source, filename=args.file)))
    return 0


def cmd_tune(args):
    import numpy as np

    from repro.compiler.autotune import autotune_filter
    from repro.frontend.types import ArrayType
    from repro.opencl import get_device
    from repro.runtime.values import dtype_for

    checked = _load_program(args.file)
    class_name, _, method_name = args.target.partition(".")
    worker = checked.lookup_method(class_name, method_name)
    if worker is None:
        print("no method {} in {}".format(args.target, args.file))
        return 1
    stream = worker.params[-1].type if worker.params else None
    if isinstance(stream, ArrayType):
        row = stream.dims()[1:]
        shape = (args.n,) + tuple(row)
        rng = np.random.RandomState(0)
        sample = (rng.rand(*shape) * 2 - 1).astype(
            dtype_for(stream.base_elem)
        )
        sample.setflags(write=False)
    else:
        sample = args.n
    result = autotune_filter(
        checked, worker, get_device(args.device), sample
    )
    print(result.report())
    return 0


# Exit status of a run killed by the --wall-deadline-ms watchdog
# (matches coreutils timeout(1)).
WALL_DEADLINE_EXIT = 124


def _abort_run(reason, message, status):
    """Append an ``aborted`` record to the active journal (if any), so
    ``--resume`` continues from the last completed item, then exit with
    ``status``."""
    import os

    from repro.runtime.journal import active_journal

    journal = active_journal()
    if journal is not None:
        journal.record_aborted(reason)
    sys.stderr.write("repro run: {}\n".format(message))
    sys.stderr.flush()
    os._exit(status)


def _start_wall_watchdog(deadline_ms):
    """Arm a wall-clock watchdog: after ``deadline_ms`` real
    milliseconds the process appends an ``aborted`` record to the
    active journal (if any) and exits with status 124 — a hung run
    becomes a journaled clean abort a later ``--resume`` picks up
    from, never an unkillable process. Returns the timer; callers
    ``cancel()`` it on normal completion."""
    import threading

    timer = threading.Timer(
        deadline_ms / 1000.0,
        _abort_run,
        [
            "wall deadline {} ms exceeded".format(deadline_ms),
            "wall deadline of {} ms exceeded, aborting".format(deadline_ms),
            WALL_DEADLINE_EXIT,
        ],
    )
    timer.daemon = True
    timer.start()
    return timer


def _install_run_signal_handlers():
    """Make SIGTERM/SIGINT during ``repro run`` a *journaled* abort:
    the handler appends an ``aborted`` record to the active journal (so
    ``--resume`` continues from the last completed item) and exits with
    the conventional ``128 + signum`` status (143 for SIGTERM, 130 for
    SIGINT) — mirroring the ``--wall-deadline-ms`` watchdog's 124."""
    import signal

    def _handler(signum, _frame):
        name = signal.Signals(signum).name
        _abort_run(
            "terminated by {}".format(name),
            "{} received, aborting (journaled)".format(name),
            128 + signum,
        )

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _handler)


def _refuse(message, choices):
    """Print ``message (choose from: CHOICES)`` to stderr."""
    print(
        "{} (choose from: {})".format(message, ", ".join(sorted(choices))),
        file=sys.stderr,
    )


def _parse_device_specs(specs, flag, want, parse):
    """Repeated NAME:REST fault flags -> dict mapping the device key to
    ``parse(REST)``, or None + printed error."""
    out = {}
    for spec in specs or []:
        name, _, rest = spec.partition(":")
        try:
            out[name] = parse(rest)
        except ValueError:
            print(
                "bad {} spec '{}' (want {})".format(flag, spec, want),
                file=sys.stderr,
            )
            return None
    return out


def _kill_after(text):
    """``--kill-device``'s ``[N]``: launches survived, default 0."""
    return int(text) if text else 0


def _slowdown(text):
    """``--slow-device``'s ``FACTOR[:N]`` -> (factor >= 1.0, N)."""
    factor, _, after = text.partition(":")
    slow = (float(factor), int(after) if after else 0)
    if slow[0] < 1.0:
        raise ValueError(factor)
    return slow


# Fault flag (argparse dest) -> FaultFlags field.
_FAULT_FLAGS = {
    "faults": "fault_rate",
    "fault_seed": "seed",
    "silent_faults": "silent_rate",
    "validate_every": "validate_every",
    "breaker_cooloff": "cooloff",
    "oom_bytes": "oom_bytes",
    "slow_ramp": "slow_ramp",
    "latency_jitter": "jitter",
}


def run_spec(args):
    """The :class:`repro.evaluation.harness.RunSpec` of ``run``,
    ``serve`` or ``serve-bench`` — the one place their flags become
    fleet devices, a fleet policy, a sanitizer and fault flags. A flag
    the subcommand does not declare keeps the spec's default. Prints
    the problem and returns None on a bad value."""
    from repro.evaluation.harness import (
        TARGETS,
        FaultFlags,
        RunSpec,
        resolve_fleet_policy,
    )
    from repro.opencl.device import DEVICES
    from repro.runtime.sanitizer import SanitizerConfig

    flags = vars(args)
    if args.target not in TARGETS:
        _refuse("unknown target '{}'".format(args.target), TARGETS)
        return None
    devices = None
    if args.devices:
        devices = [d.strip() for d in args.devices.split(",") if d.strip()]
        unknown = [d for d in devices if d not in DEVICES]
        if unknown:
            _refuse("unknown device(s) {}".format(", ".join(unknown)), DEVICES)
            return None
    kill_devices = _parse_device_specs(
        args.kill_device, "--kill-device", "NAME or NAME:N", _kill_after
    )
    if kill_devices is None:
        return None
    slow_devices = _parse_device_specs(
        flags.get("slow_device"),
        "--slow-device",
        "NAME:FACTOR or NAME:FACTOR:N with FACTOR >= 1.0",
        _slowdown,
    )
    if slow_devices is None:
        return None
    # Only fleet members carry a device key for faults to target.
    named = set(kill_devices) | set(slow_devices)
    strays = sorted(named - set(devices or ()))
    if strays:
        print(
            "--kill-device/--slow-device name(s) {} not in --devices "
            "({})".format(", ".join(strays), args.devices or "none given"),
            file=sys.stderr,
        )
        return None
    policy = None
    if devices:
        policy = resolve_fleet_policy(
            flags.get("fleet_policy"),
            schedule=flags.get("fleet_schedule"),
            hedge=flags.get("hedge"),
            hedge_quantile=flags.get("hedge_quantile"),
            hedge_factor=flags.get("hedge_factor"),
            redundancy=flags.get("redundancy"),
        )
    return RunSpec(
        target=args.target,
        devices=devices,
        fleet_policy=policy,
        scale=args.scale,
        steps=flags.get("steps"),
        max_sim_items=args.max_sim_items,
        exec_tier=flags.get("exec_tier"),
        sanitizer=SanitizerConfig.from_flags(
            sanitize=flags.get("sanitize", False),
            deadline_ns=flags.get("deadline_ns"),
            validate_every=flags.get("validate_every", 0),
        ),
        fuse=flags.get("fuse"),
        faults=FaultFlags(
            kill_devices=kill_devices,
            slow_devices=slow_devices,
            **{
                field: flags[flag]
                for flag, field in _FAULT_FLAGS.items()
                if flag in flags
            },
        ),
    )


def cmd_run(args):
    from repro.apps.registry import ALL_BENCHMARKS
    from repro.evaluation.harness import run_configuration
    from repro.runtime.profiler import (
        render_executor_summary,
        render_failure_summary,
    )

    _install_run_signal_handlers()
    if args.benchmark not in ALL_BENCHMARKS:
        _refuse(
            "unknown benchmark '{}'".format(args.benchmark), ALL_BENCHMARKS
        )
        return 1
    spec = run_spec(args)
    if spec is None:
        return 1
    tracer = None
    if args.trace_out is not None:
        from repro.runtime.tracing import Tracer

        tracer = Tracer()
    if args.resume and not args.journal:
        print("--resume requires --journal DIR", file=sys.stderr)
        return 1
    if args.kernel_cache or args.journal:
        import os

        from repro.opencl.kernel_cache import configure_disk_store

        configure_disk_store(
            args.kernel_cache
            or os.path.join(args.journal, "kernels")
        )
    watchdog = None
    if args.wall_deadline_ms is not None:
        watchdog = _start_wall_watchdog(args.wall_deadline_ms)
    result = run_configuration(
        ALL_BENCHMARKS[args.benchmark],
        spec,
        tracer=tracer,
        journal=args.journal,
        resume=args.resume,
    )
    if watchdog is not None:
        watchdog.cancel()
    if args.json:
        import dataclasses

        from repro.ioutil import atomic_write_json

        atomic_write_json(args.json, dataclasses.asdict(result))
    print("benchmark: {}  target: {}".format(result.benchmark, result.target))
    sanitizer = spec.sanitizer
    if sanitizer is not None:
        knobs = []
        if sanitizer.instruments_launch():
            knobs.append("bounds/races/divergence/nan")
        if sanitizer.deadline_ns is not None:
            knobs.append("deadline={:.0f}ns".format(sanitizer.deadline_ns))
        if sanitizer.validate_every:
            knobs.append("validate-every={}".format(sanitizer.validate_every))
        print("guards:    {}".format(" ".join(knobs)))
    print("checksum:  {!r}".format(result.checksum))
    print("total:     {:.0f} simulated ns".format(result.total_ns))
    print("offloaded: {}".format(", ".join(result.offloaded) or "(none)"))
    for name, reason in result.rejections:
        print("  rejected {}: {}".format(name, reason))
    print("stages:")
    for stage, ns in result.stages.items():
        print("  {:14s}{:>16.0f} ns".format(stage, ns))
    executor = render_executor_summary(result.executor)
    if executor:
        print(executor)
    print(render_failure_summary(result.faults))
    if result.fleet:
        print("fleet:")
        for key in sorted(result.fleet):
            h = result.fleet[key]
            print(
                "  {:12s} {:8s} launches={} faults={} demotions={} "
                "promotions={} median_launch={:.0f}ns".format(
                    key,
                    h["state"],
                    h["launches"],
                    h["faults"],
                    h["demotions"],
                    h["promotions"],
                    h["median_launch_ns"],
                )
            )
        for key in sorted(result.queues):
            q = result.queues[key]
            print(
                "  queue {:12s} submitted={} completed={} faulted={} "
                "cancelled={} busy={:.0f}ns wait={:.0f}ns "
                "cursor={:.0f}ns".format(
                    key,
                    q["submitted"],
                    q["completed"],
                    q["faulted"],
                    q["cancelled"],
                    q["busy_ns"],
                    q["wait_ns"],
                    q["cursor_ns"],
                )
            )
        hedged = int(result.metrics.get("hedge.launched", 0))
        if hedged:
            print(
                "  hedges launched={} won={} cancelled={} "
                "wasted={:.0f}ns".format(
                    hedged,
                    int(result.metrics.get("hedge.won", 0)),
                    int(result.metrics.get("hedge.cancelled", 0)),
                    result.metrics.get("hedge.wasted_ns", 0.0),
                )
            )
        print(
            "  makespan {:>16.0f} simulated ns".format(result.makespan_ns)
        )
    if result.fusion and result.fusion.get("mode", "off") != "off":
        f = result.fusion
        print(
            "fusion:    mode={} chains={} fused_kernels={} elisions={} "
            "bytes_saved={} rematerialized={}".format(
                f["mode"],
                len(f["chains"]),
                f["fused_kernels"],
                f["elisions"],
                f["bytes_saved"],
                f["rematerialized"],
            )
        )
        for reason in sorted(f.get("declined", {})):
            print(
                "  declined {}: {}".format(reason, f["declined"][reason])
            )
    if result.journal:
        j = result.journal
        print(
            "journal:   dir={} journaled={} skipped={} "
            "inflight_replayed={} torn_tails={} digest_mismatches={}"
            "{}".format(
                j["dir"],
                j["items_journaled"],
                j["items_skipped"],
                j["inflight_replayed"],
                j["torn_tail_truncated"],
                j["digest_mismatches"],
                " (resumed)" if j["resumed"] else "",
            )
        )
    if tracer is not None:
        if str(args.trace_out).endswith(".jsonl"):
            tracer.write_jsonl(args.trace_out, metrics=result.metrics)
        else:
            tracer.write_chrome(args.trace_out, metrics=result.metrics)
        n_spans = sum(1 for e in tracer.events if e.kind == "span")
        print(
            "trace:     wrote {} ({} spans, {:.1f}% of total simulated "
            "time covered)".format(
                args.trace_out,
                n_spans,
                tracer.coverage(result.total_ns) * 100.0,
            )
        )
    return 0


def cmd_serve(args):
    from repro.apps.registry import BENCHMARKS
    from repro.serving.server import ServeConfig, ServeDaemon
    from repro.serving.session import SessionSpec

    spec = run_spec(args)
    if spec is None:
        return 1
    specs = []
    for text in args.session or []:
        try:
            session = SessionSpec.parse(
                text,
                scale=args.scale,
                steps=args.steps,
                deadline_ms=args.session_deadline_ms,
            )
        except ValueError as err:
            print("bad --session: {}".format(err), file=sys.stderr)
            return 1
        if session.benchmark not in BENCHMARKS:
            _refuse(
                "unknown benchmark '{}' in --session {}".format(
                    session.benchmark, text
                ),
                BENCHMARKS,
            )
            return 1
        specs.append(session)
    if args.serve_dir:
        import os

        from repro.opencl.kernel_cache import configure_disk_store

        configure_disk_store(os.path.join(args.serve_dir, "kernels"))
    if args.resume and not args.serve_dir:
        print("--resume requires --serve-dir DIR", file=sys.stderr)
        return 1
    config = ServeConfig(
        run=spec,
        max_concurrency=args.max_concurrency,
        queue_depth=args.queue_depth,
        tenant_max_inflight=args.tenant_max_inflight,
        tenant_sim_budget_ns=args.tenant_sim_budget_ns,
        serve_dir=args.serve_dir,
        resume=args.resume,
    )
    daemon = ServeDaemon(config)
    if args.resume:
        known = {s.name for s in specs}
        specs = [
            s for s in daemon.resume_specs() if s.name not in known
        ] + specs
    if not specs:
        print(
            "nothing to serve: pass --session NAME:BENCH[:TENANT] "
            "(or --resume with a populated --serve-dir)",
            file=sys.stderr,
        )
        return 1
    daemon.install_signal_handlers()
    try:
        report = daemon.serve(specs, drain_after_ms=args.drain_after_ms)
    finally:
        daemon.restore_signal_handlers()
    if args.json:
        from repro.ioutil import atomic_write_json

        atomic_write_json(args.json, report)
    counts = " ".join(
        "{}={}".format(state, n) for state, n in sorted(report["counts"].items())
    )
    print(
        "served {} session(s): {}{}".format(
            len(report["sessions"]), counts,
            "  (drained)" if report["drained"] else "",
        )
    )
    for name, s in sorted(report["sessions"].items()):
        if s["state"] == "completed":
            print(
                "  {:12s} {:10s} tenant={:8s} {}  wall={:7.1f} ms  "
                "checksum={!r}".format(
                    name, s["state"], s["tenant"], s["benchmark"],
                    s["wall_ms"], s["checksum"],
                )
            )
        else:
            print(
                "  {:12s} {:10s} tenant={:8s} {}  {}".format(
                    name, s["state"], s["tenant"], s["benchmark"],
                    s["error"] or "",
                )
            )
    for tenant, t in sorted(report["tenants"].items()):
        print(
            "  tenant {:8s} admitted={} rejected={} completed={} "
            "aborted={} sim_ns={:.0f}".format(
                tenant, t["admitted"], t["rejected"], t["completed"],
                t["aborted"], t["sim_ns_used"],
            )
        )
    failed = report["counts"].get("failed", 0)
    return 1 if failed else 0


def _unknown_benchmarks(names):
    """Print the names that are not Table 3 benchmarks; True if any."""
    from repro.apps.registry import BENCHMARKS

    unknown = [name for name in names if name not in BENCHMARKS]
    if unknown:
        _refuse(
            "unknown benchmark(s) {}".format(", ".join(unknown)), BENCHMARKS
        )
    return bool(unknown)


def cmd_serve_bench(args):
    from repro.serving.loadgen import serving_bench

    if _unknown_benchmarks(args.apps or []):
        return 1
    spec = run_spec(args)
    if spec is None:
        return 1
    payload = serving_bench(
        spec,
        sessions=args.sessions,
        tenants=args.tenants,
        apps=args.apps or None,
        max_concurrency=args.max_concurrency,
        queue_depth=args.queue_depth,
        out_path=args.out,
    )
    for phase in ("clean", "chaos"):
        p = payload[phase]
        print(
            "{:6s} {:7.2f} sessions/sec  p50={:7.1f} ms  p99={:7.1f} ms  "
            "failovers={} retries={} rejected={}".format(
                phase,
                p["sessions_per_sec"],
                p["latency_ms"]["p50"] or 0.0,
                p["latency_ms"]["p99"] or 0.0,
                p["recovery"]["failovers"],
                p["recovery"]["retries"],
                sum(p["rejected"].values()),
            )
        )
    for phase in ("clean", "chaos"):
        for miss in payload["bit_exact"][phase]:
            print(
                "  BIT-EXACT VIOLATION ({}): session {} got {!r} want "
                "{!r}".format(
                    phase, miss["session"], miss["got"], miss["want"]
                )
            )
    if args.out:
        print("wrote {}".format(args.out))
    return 0 if payload["ok"] else 1


def cmd_bench(args):
    from repro.apps.registry import BENCHMARKS
    from repro.evaluation.harness import RunSpec
    from repro.evaluation.perfbench import format_bench, nolocal_config, run_bench

    apps = args.apps or sorted(BENCHMARKS)
    if _unknown_benchmarks(apps):
        return 1
    spec = RunSpec(
        args.target,
        scale=args.scale,
        max_sim_items=args.max_sim_items,
        config=nolocal_config(),
    )
    results = run_bench(
        spec,
        apps=apps,
        repeats=args.repeats,
        out_path=args.out,
        trace_out=args.trace_out,
    )
    print(format_bench(results))
    if args.out:
        print("wrote {}".format(args.out))
    if args.trace_out:
        print("wrote {}".format(args.trace_out))
    return 0


def cmd_trace(args):
    from repro.runtime.tracing import diff_traces, flame_summary, read_trace

    events = read_trace(args.file)
    if not events:
        print("no trace events in {}".format(args.file), file=sys.stderr)
        return 1
    if args.file2 is not None:
        other = read_trace(args.file2)
        if not other:
            print("no trace events in {}".format(args.file2), file=sys.stderr)
            return 1
        print(
            diff_traces(
                events,
                other,
                label_a=args.file,
                label_b=args.file2,
                top=args.top,
            )
        )
        return 0
    print(
        flame_summary(
            events, top=args.top, sort="wall" if args.wall else "self"
        )
    )
    return 0


def cmd_figures(args):
    scale = args.scale
    which = args.which
    if args.max_sim_items is not None:
        import os

        from repro.backend.glue import MAX_SIM_ITEMS_ENV

        os.environ[MAX_SIM_ITEMS_ENV] = str(args.max_sim_items)
    if which in ("tables", "all"):
        from repro.evaluation.tables import table1, table2, table3

        print("Table 1\n" + table1())
        print("\nTable 2\n" + table2())
        print("\nTable 3\n" + table3())
    if which in ("7", "all"):
        from repro.evaluation.figure7 import format_figure7, run_figure7
        from repro.evaluation.report import figure7_chart

        print("\nFigure 7 — end-to-end speedups")
        table = run_figure7(scale=scale)
        print(format_figure7(table))
        for target in ("cpu-6", "gtx580"):
            print()
            print(figure7_chart(table, target))
    if which in ("8", "all"):
        from repro.evaluation.figure8 import format_figure8, run_figure8

        print("\nFigure 8 — compiled vs hand-tuned kernels")
        print(format_figure8(run_figure8(scale=scale)))
    if which in ("9", "all"):
        from repro.evaluation.figure9 import format_figure9, run_figure9

        from repro.evaluation.report import figure9_chart

        cpu = run_figure9("cpu-6", scale=scale)
        gpu = run_figure9("gtx580", scale=scale)
        print("\nFigure 9(a) — CPU")
        print(format_figure9(cpu))
        print(figure9_chart(cpu, "cpu-6"))
        print("\nFigure 9(b) — GTX580")
        print(format_figure9(gpu))
        print(figure9_chart(gpu, "gtx580"))
    return 0


def _spec_flags():
    """The run-shaping flags ``run``, ``serve`` and ``serve-bench`` all
    take. A fresh parser per subcommand: argparse shares a parent's
    actions with its children, so ``serve-bench``'s ``set_defaults``
    would otherwise change the other subcommands' defaults too."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--target", default="gtx580")
    flags.add_argument("--scale", type=float, default=0.3)
    flags.add_argument(
        "--devices",
        default=None,
        help="comma-separated device keys (e.g. gtx580,hd5970): offload "
        "to a health-scheduled multi-device fleet with transparent "
        "failover instead of the single --target device (serve: one "
        "fleet shared by every session)",
    )
    flags.add_argument(
        "--max-sim-items",
        type=int,
        default=None,
        help="cap on simulated work-items per launch (default 2048; "
        "also settable via REPRO_MAX_SIM_ITEMS)",
    )
    flags.add_argument(
        "--faults",
        type=float,
        default=0.0,
        help="per-stage fault-injection probability (0 disables; faults "
        "are recovered by retry/backoff and transparent host fallback; "
        "serve: per session; serve-bench: chaos phase)",
    )
    flags.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the deterministic fault injector",
    )
    flags.add_argument(
        "--kill-device",
        action="append",
        default=None,
        metavar="NAME[:N]",
        help="fault injection: device NAME (one of --devices) fails "
        "every launch after its first N (default 0 = from the start); "
        "repeatable, for fleet failover drills (serve-bench: chaos "
        "phase, default the first fleet device after 3 launches)",
    )
    return flags


def _run_serve_flags():
    """The flags ``run`` and ``serve`` share, with the same defaults."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--fleet-policy",
        choices=["health", "round-robin"],
        default="health",
        help="fleet placement strategy: rank devices by observed health "
        "(median kernel time + fault history) or rotate round-robin",
    )
    flags.add_argument(
        "--fleet-schedule",
        choices=["concurrent", "sequential"],
        default="concurrent",
        help="fleet dispatch schedule: overlap independent stream items "
        "across per-device command queues (concurrent, the default) or "
        "keep one item in flight fleet-wide (sequential) — results are "
        "bit-exact either way, only the simulated makespan differs",
    )
    flags.add_argument(
        "--hedge",
        choices=["off", "on"],
        default="off",
        help="tail tolerance: duplicate a straggling launch on the "
        "next-best queue once it exceeds its latency budget; first "
        "completion wins, the loser is cancelled with its queue "
        "cursor credited (concurrent fleet schedule only; serve: "
        "sessions near their --session-deadline-ms hedge eagerly; see "
        "docs/HEDGING.md)",
    )
    flags.add_argument(
        "--steps", type=int, default=None, help="stream depth override"
    )
    flags.add_argument(
        "--exec-tier",
        choices=["auto", "batch", "per-item"],
        default=None,
        help="execution tier for kernel launches (default: "
        "REPRO_EXEC_TIER, then auto — batch where eligible)",
    )
    flags.add_argument(
        "--validate-every",
        type=int,
        default=0,
        help="differential validation: re-run every Nth stream item on "
        "the host interpreter and compare (0 disables)",
    )
    flags.add_argument(
        "--breaker-cooloff",
        type=int,
        default=None,
        help="successful host runs after which an open circuit breaker "
        "half-opens and probes the device again (default: demotion is "
        "permanent)",
    )
    flags.add_argument(
        "--oom-bytes",
        type=int,
        default=0,
        help="fault injection: deterministic device memory ceiling — any "
        "single launch allocating more bytes raises a device OOM, which "
        "the glue recovers via NDRange-partitioned relaunch (0 = off)",
    )
    return flags


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The Lime GPU compiler reproduction (PLDI 2012).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list the simulated devices")

    compile_cmd = sub.add_parser("compile", help="compile Lime filters to OpenCL C")
    compile_cmd.add_argument("file", help="Lime source file")
    compile_cmd.add_argument("--device", default="gtx580")
    compile_cmd.add_argument(
        "--config",
        choices=sorted(
            __import__(
                "repro.compiler.options", fromlist=["FIGURE8_CONFIGS"]
            ).FIGURE8_CONFIGS
        ),
        help="a Figure 8 configuration (default: the compiler's best)",
    )

    format_cmd = sub.add_parser("format", help="pretty-print a Lime file")
    format_cmd.add_argument("file")

    tune_cmd = sub.add_parser("tune", help="auto-tune a filter")
    tune_cmd.add_argument("file")
    tune_cmd.add_argument("target", help="Class.method of the filter worker")
    tune_cmd.add_argument("--device", default="gtx580")
    tune_cmd.add_argument("--n", type=int, default=128, help="sample size")

    figures_cmd = sub.add_parser(
        "figures", help="regenerate the paper's tables/figures"
    )
    figures_cmd.add_argument(
        "which", choices=["tables", "7", "8", "9", "all"], default="tables",
        nargs="?",
    )
    figures_cmd.add_argument("--scale", type=float, default=0.3)
    figures_cmd.add_argument(
        "--max-sim-items",
        type=int,
        default=None,
        help="cap on simulated work-items per launch (default 2048; "
        "also settable via REPRO_MAX_SIM_ITEMS)",
    )

    run_cmd = sub.add_parser(
        "run",
        parents=[_spec_flags(), _run_serve_flags()],
        help="run one benchmark end to end, optionally with fault "
        "injection, and print the stage breakdown + failure ledger",
    )
    run_cmd.add_argument("benchmark", help="a Table 3 benchmark name")
    run_cmd.add_argument(
        "--slow-device",
        action="append",
        default=None,
        metavar="NAME:FACTOR[:N]",
        help="fault injection: device NAME's (one of --devices) kernel "
        "launches take FACTOR x their modeled time starting at its "
        "launch N "
        "(default 0 = from the start); repeatable — the seedable "
        "straggler model behind health demotion and hedged launches",
    )
    run_cmd.add_argument(
        "--slow-ramp",
        type=int,
        default=0,
        help="degradation ramp: a --slow-device's factor climbs "
        "linearly from 1.0 to FACTOR over this many launches instead "
        "of stepping (0 = step change)",
    )
    run_cmd.add_argument(
        "--latency-jitter",
        type=float,
        default=0.0,
        help="fault injection: add up to this fraction of each kernel "
        "launch's modeled time as deterministic per-device timing "
        "noise (0 disables)",
    )
    run_cmd.add_argument(
        "--hedge-quantile",
        type=float,
        default=0.95,
        help="hedging latency budget quantile of the fleet-wide "
        "kernel.launch_ns histogram (default 0.95)",
    )
    run_cmd.add_argument(
        "--hedge-factor",
        type=float,
        default=3.0,
        help="hedging budget multiplier: hedge once a launch exceeds "
        "FACTOR x the --hedge-quantile estimate (default 3.0)",
    )
    run_cmd.add_argument(
        "--redundancy",
        choices=["off", "vote"],
        default="off",
        help="redundant execution: 'vote' re-runs each fleet item on a "
        "second device and compares output digests — a disagreement "
        "raises a typed VoteMismatchFault through the breaker/retry "
        "machinery (catches silent corruption deterministically)",
    )
    run_cmd.add_argument(
        "--silent-faults",
        type=float,
        default=0.0,
        help="probability a kernel's output buffer is corrupted silently "
        "(no exception, no CRC mismatch) — only --validate-every "
        "sampling can catch it",
    )
    run_cmd.add_argument(
        "--sanitize",
        action="store_true",
        help="run kernels under guarded execution: bounds checks, "
        "race/divergence detection, and NaN-poisoning traps",
    )
    run_cmd.add_argument(
        "--deadline-ns",
        type=float,
        default=None,
        help="per-launch watchdog deadline in simulated ns (implies "
        "instrumented launches)",
    )
    run_cmd.add_argument(
        "--fuse",
        choices=["off", "resident", "kernel"],
        default=None,
        help="graph-level buffer planner for => pipelines: 'resident' "
        "keeps intermediates on-device across adjacent kernels, "
        "'kernel' additionally fuses legal chains into one composite "
        "kernel (default: REPRO_FUSE, then off)",
    )
    run_cmd.add_argument(
        "--trace-out",
        default=None,
        help="write a structured trace of the run: Chrome "
        "chrome://tracing JSON, or a flat JSONL event log when the "
        "path ends in .jsonl (render with 'repro trace FILE')",
    )
    run_cmd.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help="write-ahead-log every offloaded stream item to a "
        "crash-consistent journal in DIR (CRC-framed, fsynced); also "
        "defaults the on-disk kernel cache to DIR/kernels",
    )
    run_cmd.add_argument(
        "--resume",
        action="store_true",
        help="with --journal: recover the journal (CRC scan + torn-tail "
        "truncation) and skip already-completed items bit-exactly "
        "instead of recomputing them",
    )
    run_cmd.add_argument(
        "--kernel-cache",
        default=None,
        metavar="DIR",
        help="content-addressed on-disk kernel store: compiled kernels "
        "are persisted here and restored without re-running codegen "
        "(also settable via REPRO_KERNEL_CACHE_DIR)",
    )
    run_cmd.add_argument(
        "--wall-deadline-ms",
        type=int,
        default=None,
        help="wall-clock watchdog: if the run exceeds this many real "
        "milliseconds, append an 'aborted' journal record and exit "
        "with status 124 instead of hanging",
    )
    run_cmd.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="atomically write the full RunResult (checksum, stages, "
        "metrics, journal stats) as sorted-key JSON to FILE",
    )

    serve_cmd = sub.add_parser(
        "serve",
        parents=[_spec_flags(), _run_serve_flags()],
        help="multi-tenant serving daemon: run many named sessions "
        "concurrently on a shared device fleet with admission control, "
        "load shedding, and a journaled SIGTERM drain",
    )
    serve_cmd.add_argument(
        "--session",
        action="append",
        default=None,
        metavar="NAME:BENCH[:TENANT]",
        help="one session to serve (repeatable): a named run of a "
        "Table 3 benchmark, attributed to TENANT (default 'default')",
    )
    serve_cmd.add_argument(
        "--serve-dir",
        default=None,
        metavar="DIR",
        help="persist per-session descriptors and crash-consistent run "
        "journals under DIR/sessions/<name>/ (also puts the on-disk "
        "kernel store at DIR/kernels)",
    )
    serve_cmd.add_argument(
        "--resume",
        action="store_true",
        help="re-admit every session persisted in --serve-dir by a "
        "previous (drained or killed) daemon and replay their journals "
        "bit-exactly",
    )
    serve_cmd.add_argument(
        "--max-concurrency",
        type=int,
        default=4,
        help="worker threads running sessions concurrently",
    )
    serve_cmd.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="bounded admission queue; a full queue sheds new sessions "
        "with AdmissionRejected(queue_full) instead of buffering them",
    )
    serve_cmd.add_argument(
        "--tenant-max-inflight",
        type=int,
        default=4,
        help="per-tenant cap on admitted-but-unfinished sessions",
    )
    serve_cmd.add_argument(
        "--tenant-sim-budget-ns",
        type=float,
        default=None,
        help="per-tenant cumulative simulated-ns budget; exhaustion "
        "sheds new sessions and aborts the tenant's running ones at "
        "the next item boundary",
    )
    serve_cmd.add_argument(
        "--session-deadline-ms",
        type=float,
        default=None,
        help="wall-clock deadline per running session; a slow session "
        "is aborted (and journaled) at its next item boundary",
    )
    serve_cmd.add_argument(
        "--drain-after-ms",
        type=float,
        default=None,
        help="self-drain after this many wall milliseconds (the "
        "scripted stand-in for an operator's SIGTERM)",
    )
    serve_cmd.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="atomically write the full serve report (sessions, "
        "tenants, metrics, fleet) as JSON to FILE",
    )

    serve_bench_cmd = sub.add_parser(
        "serve-bench",
        parents=[_spec_flags()],
        help="serving load generator: clean vs chaos phases over the "
        "same workload; writes BENCH_serving.json",
    )
    serve_bench_cmd.add_argument(
        "apps", nargs="*", help="benchmarks to round-robin sessions over"
    )
    serve_bench_cmd.add_argument(
        "--sessions", type=int, default=8, help="total sessions per phase"
    )
    serve_bench_cmd.add_argument(
        "--tenants", type=int, default=2, help="tenants to spread them over"
    )
    serve_bench_cmd.add_argument("--max-concurrency", type=int, default=4)
    serve_bench_cmd.add_argument("--queue-depth", type=int, default=16)
    serve_bench_cmd.add_argument(
        "--out",
        default=None,
        help="write the results JSON here (e.g. BENCH_serving.json)",
    )
    serve_bench_cmd.set_defaults(
        scale=0.2,
        devices="gtx580,hd5970",
        max_sim_items=256,
        faults=0.05,
        fault_seed=1234,
    )

    bench_cmd = sub.add_parser(
        "bench",
        help="time the executor tiers (host interpreter vs per-item vs "
        "batch) and write BENCH_executor.json",
    )
    bench_cmd.add_argument(
        "apps", nargs="*", help="benchmark names (default: all nine)"
    )
    bench_cmd.add_argument("--target", default="gtx580")
    bench_cmd.add_argument("--scale", type=float, default=1.0)
    bench_cmd.add_argument(
        "--max-sim-items",
        type=int,
        default=4096,
        help="work-item cap during capture (larger NDRanges show the "
        "batch tier's advantage; default 4096)",
    )
    bench_cmd.add_argument(
        "--repeats", type=int, default=3, help="best-of-N replay timing"
    )
    bench_cmd.add_argument(
        "--out",
        default=None,
        help="write the results JSON here (e.g. BENCH_executor.json)",
    )
    bench_cmd.add_argument(
        "--trace-out",
        default=None,
        help="write a structured trace of the capture runs (Chrome "
        "JSON, or JSONL when the path ends in .jsonl)",
    )

    trace_cmd = sub.add_parser(
        "trace",
        help="pretty-print a trace file as a flame summary, or diff "
        "two trace files",
    )
    trace_cmd.add_argument(
        "file", help="a trace written by run/bench --trace-out"
    )
    trace_cmd.add_argument(
        "file2",
        nargs="?",
        default=None,
        help="optional second trace: print a span-by-span diff instead",
    )
    trace_cmd.add_argument(
        "--top",
        type=int,
        default=None,
        help="show only the top N spans by self time",
    )
    trace_cmd.add_argument(
        "--wall",
        action="store_true",
        help="sort the flame summary by wall-clock self-profiling time "
        "(where the simulator itself spends real time) instead of "
        "simulated self time",
    )

    return parser


_COMMANDS = {
    "devices": cmd_devices,
    "compile": cmd_compile,
    "format": cmd_format,
    "tune": cmd_tune,
    "figures": cmd_figures,
    "run": cmd_run,
    "serve": cmd_serve,
    "serve-bench": cmd_serve_bench,
    "bench": cmd_bench,
    "trace": cmd_trace,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as err:
        print("error: {}".format(err), file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print("error: {}".format(err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
