"""Cross-task fusion pass tests: typed decline reasons, chain
planning, and bit-exact equivalence of the composite path.

Complements tests/compiler/test_fusion.py (within-filter nested-map
fusion): these tests exercise the *graph-level* planner — the seams
between ``=>``-connected offloaded tasks — and the legality predicates
documented in docs/FUSION.md.
"""

import numpy as np
import pytest

from repro.compiler import Offloader
from repro.compiler.fusion import (
    FusionCtx,
    FusionPlanner,
    build_fused_spec,
    resolve_fuse_mode,
)
from repro.errors import KernelRejected, RuntimeFault
from repro.frontend import check_program, parse_program
from repro.opencl import get_device
from repro.runtime.engine import Engine
from repro.runtime.profiler import ExecutionProfile
from repro.runtime.taskgraph import Task, TaskGraph
from tests.opencl.test_batch_executor import DECLINES

SOURCE = """
class P {
    float[[]] data;
    int remaining;
    static float result = 0.0f;

    P(float[[]] xs, int steps) { data = xs; remaining = steps; }

    float[[]] gen() {
        if (remaining <= 0) { throw new UnderflowException(); }
        remaining = remaining - 1;
        return data;
    }

    static local float scaleOne(float x) { return x * 2.0f + 1.0f; }
    static local float[[]] scale(float[[]] xs) {
        return P.scaleOne @ xs;
    }

    static local float dampOne(float x) { return x / (1.0f + x * x); }
    static local float[[]] damp(float[[]] xs) {
        return P.dampOne @ xs;
    }

    static local float total(float[[]] xs) { return +! xs; }

    static local float h(float y, float a) { return y * a; }
    static local float[[]] withBound(float[[]] xs, float a) {
        return P.h(a) @ xs;
    }
    static local float[[]] withB(float[[]] ys, float a) {
        return P.h(a) @ ys;
    }

    static local float[[]] overIota(float[[]] xs) {
        return P.scaleOne @ Lime.iota(8);
    }

    static local float g2(float x, float[[]] all) { return x + all[0]; }
    static local float[[]] gathered(float[[]] xs) {
        return P.g2(xs) @ xs;
    }

    static local float[[]] twoFree(float[[]] xs, float k) {
        return P.h(k) @ xs;
    }

    static void consume(float[[]] xs) {
        int last = xs.length - 1;
        result = result + xs[0] + xs[last];
    }

    static void consumeScalar(float s) { result = result + s; }

    static float runMaps(float[[]] xs, int steps) {
        result = 0.0f;
        var g = task P(xs, steps).gen
             => task P.scale
             => task P.damp
             => task P.consume;
        g.finish();
        return result;
    }

    static float runReduce(float[[]] xs, int steps) {
        result = 0.0f;
        var g = task P(xs, steps).gen
             => task P.scale
             => task P.total
             => task P.consumeScalar;
        g.finish();
        return result;
    }
}
"""


@pytest.fixture(scope="module")
def checked():
    return check_program(parse_program(SOURCE))


def method(checked, name):
    return checked.lookup_method("P", name)


def xs_input(n=33):
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1.0, 1.0, size=n).astype(np.float32)
    xs.setflags(write=False)
    return xs


# -- mode resolution ---------------------------------------------------------


def test_resolve_fuse_mode(monkeypatch):
    monkeypatch.delenv("REPRO_FUSE", raising=False)
    assert resolve_fuse_mode(None) == "off"
    assert resolve_fuse_mode("kernel") == "kernel"
    monkeypatch.setenv("REPRO_FUSE", "resident")
    assert resolve_fuse_mode(None) == "resident"
    assert resolve_fuse_mode("off") == "off"
    with pytest.raises(RuntimeFault):
        resolve_fuse_mode("sideways")


# -- build_fused_spec: typed structural declines ----------------------------


def test_spec_merges_a_legal_chain(checked):
    spec = build_fused_spec(
        checked, [(method(checked, "scale"), {}), (method(checked, "damp"), {})]
    )
    assert spec.worker.qualified_name == "P.scale+P.damp"
    assert spec.fused_names == ["P.scale", "P.damp"]
    assert spec.mapped_method.name == "dampOne"
    # One chained entry, flagged as a cross-task seam (rounded to the
    # declared element type so the fused path reproduces the staged
    # intermediate store bit-exactly).
    assert len(spec.fused_inner) == 1
    entry = spec.fused_inner[0]
    assert entry[0].name == "scaleOne"
    assert entry[2] is True


def test_spec_rejects_reduce_member(checked):
    with pytest.raises(KernelRejected, match="^consumer_reduce"):
        build_fused_spec(
            checked,
            [(method(checked, "scale"), {}), (method(checked, "total"), {})],
        )


def test_spec_rejects_two_free_params(checked):
    with pytest.raises(KernelRejected, match="^no_stream_param"):
        build_fused_spec(
            checked,
            [(method(checked, "scale"), {}), (method(checked, "twoFree"), {})],
        )


def test_spec_rejects_rate_mismatch(checked):
    with pytest.raises(KernelRejected, match="^rate_mismatch"):
        build_fused_spec(
            checked,
            [(method(checked, "scale"), {}), (method(checked, "overIota"), {})],
        )


def test_spec_rejects_gather(checked):
    with pytest.raises(KernelRejected, match="^gather"):
        build_fused_spec(
            checked,
            [(method(checked, "scale"), {}), (method(checked, "gathered"), {})],
        )


def test_spec_rejects_param_collision(checked):
    with pytest.raises(KernelRejected, match="^param_collision"):
        build_fused_spec(
            checked,
            [
                (method(checked, "withBound"), {"a": 2.0}),
                (method(checked, "withB"), {"a": 3.0}),
            ],
        )


# -- planner legality predicates --------------------------------------------


class _StubKernel:
    def __init__(self, supported=True, reason=None):
        self.batch_supported = supported
        self.batch_reason = reason


class _StubFilter:
    def __init__(self, stream_param=None, reduce_kernel=None, compiled=None):
        self.stream_param = stream_param
        self.plan = object()
        self.reduce_kernel = reduce_kernel
        self.compiled_kernel = compiled or _StubKernel()
        self.emit_resident = False
        self.accept_resident = False


def ctx(planner, meth, filt, name="t"):
    return FusionCtx(
        planner=planner,
        name=name,
        method=meth,
        bound_values={},
        device_worker=filt,
        host_factory=None,
        wrap=None,
    )


@pytest.fixture()
def planner(checked):
    return FusionPlanner("kernel", checked, None, ExecutionProfile())


def test_resident_scalar_boundary(planner, checked):
    prod = ctx(planner, method(checked, "total"), _StubFilter())
    cons = ctx(
        planner,
        method(checked, "damp"),
        _StubFilter(stream_param=method(checked, "damp").params[0]),
    )
    assert planner._resident_reason(prod, cons) == "scalar_boundary"


def test_resident_type_mismatch(planner, checked):
    prod = ctx(planner, method(checked, "scale"), _StubFilter())
    # The consumer's stream port is a scalar float, not float[[]].
    cons = ctx(
        planner,
        method(checked, "damp"),
        _StubFilter(stream_param=method(checked, "scaleOne").params[0]),
    )
    assert planner._resident_reason(prod, cons) == "type_mismatch"


def test_resident_legal_seam(planner, checked):
    prod = ctx(planner, method(checked, "scale"), _StubFilter())
    cons = ctx(
        planner,
        method(checked, "damp"),
        _StubFilter(stream_param=method(checked, "damp").params[0]),
    )
    assert planner._resident_reason(prod, cons) is None


@pytest.mark.parametrize("reason", sorted({p.values[0] for p in DECLINES}))
def test_kernel_decline_maps_every_batch_reason(planner, checked, reason):
    # Fusion reads the typed reason, not its wording: only the
    # work-group-structure reasons are a barrier decline.
    good = ctx(planner, method(checked, "scale"), _StubFilter())
    declined = ctx(
        planner,
        method(checked, "damp"),
        _StubFilter(compiled=_StubKernel(False, reason)),
    )
    group = reason in ("local-memory tiling", "barrier synchronization")
    assert planner._kernel_reason(good, declined) == (
        "barrier" if group else "divergence"
    )


def test_kernel_reduce_decline(planner, checked):
    good = ctx(planner, method(checked, "scale"), _StubFilter())
    red = ctx(
        planner,
        method(checked, "total"),
        _StubFilter(reduce_kernel=object()),
    )
    assert planner._kernel_reason(good, red) == "consumer_reduce"


# -- multi-consumer revocation ----------------------------------------------


def _fusion_task(planner, name, meth, filt):
    t = Task(
        worker=lambda v: v, name=name, is_source=False, produces=True,
        isolated=True,
    )
    t.fusion = ctx(planner, meth, filt, name=name)
    return t


def test_multi_consumer_revokes_resident_marks(checked):
    planner = FusionPlanner("resident", checked, None, ExecutionProfile())
    prod_filt = _StubFilter()
    cons_filt = _StubFilter(stream_param=method(checked, "damp").params[0])
    prod = _fusion_task(planner, "P.scale", method(checked, "scale"), prod_filt)
    cons = _fusion_task(planner, "P.damp", method(checked, "damp"), cons_filt)

    planner.apply(TaskGraph([prod, cons]))
    assert prod_filt.emit_resident is True
    assert cons_filt.accept_resident is True
    assert planner.chains and planner.chains[0]["kind"] == "resident"

    # A second finished graph reuses the consumer task: its input can no
    # longer be pinned to one device, so the seam's marks are revoked.
    planner.apply(TaskGraph([cons]))
    assert prod_filt.emit_resident is False
    assert cons_filt.accept_resident is False
    assert ("P.damp", "multi_consumer") in planner.declines
    assert planner.summary()["declined"]["multi_consumer"] == 1


# -- end-to-end equivalence --------------------------------------------------


def run_engine(checked, run_method, fuse, steps=3):
    offloader = Offloader(device=get_device("gtx580"))
    engine = Engine(checked, offloader=offloader, fuse=fuse)
    result = engine.run_static("P", run_method, [xs_input(), steps])
    return result, engine


def test_three_mode_bit_exact_equivalence(checked):
    baseline, base_engine = run_engine(checked, "runMaps", None)
    resident, res_engine = run_engine(checked, "runMaps", "resident")
    fused, fuse_engine = run_engine(checked, "runMaps", "kernel")
    # Bit-exact, not approximate: residency and composition must not
    # change a single ulp.
    assert resident == baseline
    assert fused == baseline
    assert base_engine.fusion_summary() == {}

    res = res_engine.fusion_summary()
    assert res["mode"] == "resident"
    assert [c["chain"] for c in res["chains"]] == ["P.scale+P.damp"]
    assert res["chains"][0]["kind"] == "resident"
    assert res["elisions"] > 0
    assert res["bytes_saved"] > 0
    assert res["fused_kernels"] == 0

    fus = fuse_engine.fusion_summary()
    assert fus["mode"] == "kernel"
    assert fus["fused_kernels"] == 1
    assert fus["chains"][0]["kind"] == "kernel"
    assert "P.scale+P.damp" in fuse_engine.offloaded_tasks


def test_composite_launches_once_per_item(checked):
    _, base_engine = run_engine(checked, "runMaps", None)
    _, fuse_engine = run_engine(checked, "runMaps", "kernel")
    # Two kernels per item staged, one fused kernel per item composed.
    assert (
        fuse_engine.profile.kernel_launches
        < base_engine.profile.kernel_launches
    )


def test_reduce_consumer_declines_kernel_but_keeps_residency(checked):
    baseline, _ = run_engine(checked, "runReduce", None)
    fused, engine = run_engine(checked, "runReduce", "kernel")
    assert fused == baseline
    summary = engine.fusion_summary()
    assert summary["fused_kernels"] == 0
    assert summary["declined"]["consumer_reduce"] >= 1
    # The seam is still resident-legal: the intermediate stays on-device.
    assert summary["elisions"] > 0
    assert summary["chains"][0]["kind"] == "resident"
