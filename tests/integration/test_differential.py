"""Property-based differential testing: the device executor must agree
with the host interpreter on generated element-wise programs.

Hypothesis builds random arithmetic expressions over the map element and
a couple of constants; the resulting Lime program is run both through
the interpreter and through the full GPU compilation pipeline.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.options import FIGURE8_CONFIGS, OptimizationConfig
from repro.compiler.pipeline import compile_filter
from repro.frontend import check_program, parse_program
from repro.opencl import get_device
from repro.runtime.interp import Interpreter
from repro.runtime.sanitizer import SanitizerConfig


@st.composite
def float_expressions(draw, depth=0):
    """A Lime expression over float variable `x` (safe: no div by zero)."""
    if depth >= 3 or draw(st.booleans()):
        return draw(
            st.sampled_from(
                ["x", "0.5f", "2.0f", "x * x", "(x + 1.5f)", "Math.abs(x)"]
            )
        )
    op = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(float_expressions(depth=depth + 1))
    right = draw(float_expressions(depth=depth + 1))
    return "({} {} {})".format(left, op, right)


def build_program(expr):
    return check_program(
        parse_program(
            "class G {{"
            " static local float f(float x) {{ return {}; }}"
            " static local float[[]] m(float[[]] xs) {{ return G.f @ xs; }}"
            " }}".format(expr)
        )
    )


@given(float_expressions(), st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_device_matches_interpreter_on_random_expressions(expr, n):
    checked = build_program(expr)
    rng = np.random.RandomState(zlib.crc32(expr.encode()))
    xs = (rng.rand(n).astype(np.float32) * 4 - 2).astype(np.float32)
    xs.setflags(write=False)
    interp = Interpreter(checked)
    expected = interp.call_static("G", "m", [xs])
    cf = compile_filter(
        checked,
        checked.lookup_method("G", "m"),
        device=get_device("gtx580"),
        local_size=8,
    )
    out = cf(xs)
    assert np.allclose(out, expected, rtol=1e-5, atol=1e-6, equal_nan=True)


@st.composite
def int_expressions(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(
            st.sampled_from(
                ["x", "3", "7", "(x & 255)", "(x >> 2)", "(-x)", "(~x)", "(x >>> 3)"]
            )
        )
    op = draw(st.sampled_from(["+", "-", "*", "^", "|", "&"]))
    left = draw(int_expressions(depth=depth + 1))
    right = draw(int_expressions(depth=depth + 1))
    return "({} {} {})".format(left, op, right)


@pytest.mark.parametrize("tier", ["per-item", "batch"])
@given(int_expressions(), st.integers(1, 20))
@settings(max_examples=40, deadline=None)
def test_integer_semantics_match_including_wrapping(tier, expr, n):
    checked = check_program(
        parse_program(
            "class G {{"
            " static local int f(int x) {{ return {}; }}"
            " static local int[[]] m(int[[]] xs) {{ return G.f @ xs; }}"
            " }}".format(expr)
        )
    )
    rng = np.random.RandomState(zlib.crc32(expr.encode()))
    xs = rng.randint(-(2 ** 30), 2 ** 30, size=n).astype(np.int32)
    xs.setflags(write=False)
    interp = Interpreter(checked)
    expected = interp.call_static("G", "m", [xs])
    cf = compile_filter(
        checked,
        checked.lookup_method("G", "m"),
        device=get_device("gtx580"),
        local_size=8,
        exec_tier=tier,
    )
    out = cf(xs)
    assert np.array_equal(np.asarray(out), np.asarray(expected))
    assert set(cf.profile.executor_summary()["executor.launches"]) == {tier}


# Integer arithmetic, shifts, negation, complement and casts at the
# edges of the range: (element type, expression, x, host result). The
# long ``>>>`` declines the batch tier and runs per-item either way.
WRAP_CASES = [
    ("int", "-x", -(2**31), -(2**31)),
    ("int", "(-x) / 2", -(2**31), -(2**30)),
    ("int", "(x >>> 0) / 2", -1, 0),
    ("int", "x + 1", 2**31 - 1, -(2**31)),
    ("int", "x - 1", -(2**31), 2**31 - 1),
    ("int", "x * -1", -(2**31), -(2**31)),
    ("int", "1 << x", 31, -(2**31)),
    ("int", "(int) (x + 2147483648L)", 2**31 - 1, -1),
    ("long", "~x", 2**40, -(2**40) - 1),
    ("long", "-x", -(2**63), -(2**63)),
    ("long", "x >>> 0", -1, -1),
    ("long", "x + 1", 2**63 - 1, -(2**63)),
    ("long", "x - 1", -(2**63), 2**63 - 1),
    ("long", "x * -1", -(2**63), -(2**63)),
    ("long", "1L << x", 63, -(2**63)),
    ("long", "(int) x", 2**40 + 2**31, -(2**31)),
]


def _tier_options(tier):
    """compile_filter keywords that run every launch on ``tier``: a
    sanitizer config makes each launch guarded, hence sanitized."""
    if tier == "sanitized":
        return {"sanitizer": SanitizerConfig()}
    return {"exec_tier": tier}


@pytest.mark.parametrize("tier", ["per-item", "sanitized", "batch"])
@pytest.mark.parametrize(
    "ktype,expr,x,host",
    WRAP_CASES,
    ids=["{} {}".format(t, e) for t, e, _, _ in WRAP_CASES],
)
def test_integer_unary_and_unsigned_shift_wrap_like_the_host(
    ktype, expr, x, host, tier
):
    checked = check_program(
        parse_program(
            "class G {{"
            " static local {t} f({t} x) {{ return {e}; }}"
            " static local {t}[[]] m({t}[[]] xs) {{ return G.f @ xs; }}"
            " }}".format(t=ktype, e=expr)
        )
    )
    dtype = np.int32 if ktype == "int" else np.int64
    xs = np.array([x, -1, 0, 1, 12345], dtype=dtype)
    xs.setflags(write=False)
    expected = Interpreter(checked).call_static("G", "m", [xs])
    assert expected[0] == host
    cf = compile_filter(
        checked,
        checked.lookup_method("G", "m"),
        device=get_device("gtx580"),
        local_size=8,
        **_tier_options(tier),
    )
    out = cf(xs)
    assert np.array_equal(np.asarray(out), np.asarray(expected))
    if tier == "batch" and ktype == "long" and ">>>" in expr:
        tier = "per-item"  # declines the batch tier
    assert set(cf.profile.executor_summary()["executor.launches"]) == {tier}


@given(st.sampled_from(sorted(FIGURE8_CONFIGS)), st.integers(3, 40))
@settings(max_examples=24, deadline=None)
def test_every_config_preserves_scan_semantics(config_name, n):
    """A scan-with-accumulate worker under every optimization config."""
    source = """
    class S {
        static local float acc(float[[4]] p, float[[][4]] all) {
            float s = 0.0f;
            for (int j = 0; j < all.length; j++) {
                s = s + all[j][0] * p[1] - all[j][3];
            }
            return s;
        }
        static local float[[]] m(float[[][4]] all) { return S.acc(all) @ all; }
    }
    """
    checked = check_program(parse_program(source))
    rng = np.random.RandomState(n * 13)
    data = rng.rand(n, 4).astype(np.float32)
    data.setflags(write=False)
    interp = Interpreter(checked)
    expected = interp.call_static("S", "m", [data])
    cf = compile_filter(
        checked,
        checked.lookup_method("S", "m"),
        device=get_device("gtx8800"),
        config=FIGURE8_CONFIGS[config_name],
        local_size=8,
    )
    out = cf(data)
    assert np.allclose(out, expected, rtol=1e-4, atol=1e-5)


# INT_MIN / -1 and Math.abs(INT_MIN) wrap to INT_MIN, as on the host.
# Each row holds (x, divisor), so no pass can fold the division:
# (element type, result type, expression, host result on the first
# row).
INT_MIN_CASES = [
    ("int", "int", "p[0] / p[1]", -(2**31)),
    ("int", "int", "(p[0] / p[1]) > 0 ? 1 : 0", 0),
    ("int", "int", "p[0] % p[1]", 0),
    ("int", "int", "Math.abs(p[0])", -(2**31)),
    ("int", "int", "Math.abs(p[0]) > 0 ? 1 : 0", 0),
    ("long", "long", "p[0] / p[1]", -(2**63)),
    ("long", "int", "(p[0] / p[1]) > 0 ? 1 : 0", 0),
    ("long", "long", "p[0] % p[1]", 0),
    ("long", "long", "Math.abs(p[0])", -(2**63)),
    ("long", "int", "Math.abs(p[0]) > 0 ? 1 : 0", 0),
]


@pytest.mark.parametrize("tier", ["per-item", "batch"])
@pytest.mark.parametrize(
    "ktype,rtype,expr,host",
    INT_MIN_CASES,
    ids=["{} {}".format(t, e) for t, _, e, _ in INT_MIN_CASES],
)
def test_int_min_division_wraps_like_the_host(ktype, rtype, expr, host, tier):
    checked = check_program(
        parse_program(
            "class G {{"
            " static local {r} f({t}[[2]] p) {{ return {e}; }}"
            " static local {r}[[]] m({t}[[][2]] ps) {{ return G.f @ ps; }}"
            " }}".format(t=ktype, r=rtype, e=expr)
        )
    )
    dtype = np.int32 if ktype == "int" else np.int64
    low = np.iinfo(dtype).min
    rows = np.array([[low, -1], [low, 1], [7, -2], [-7, 2], [0, -1]], dtype=dtype)
    rows.setflags(write=False)
    expected = Interpreter(checked).call_static("G", "m", [rows])
    assert expected[0] == host
    cf = compile_filter(
        checked,
        checked.lookup_method("G", "m"),
        device=get_device("gtx580"),
        local_size=8,
        exec_tier=tier,
    )
    out = cf(rows)
    assert np.array_equal(np.asarray(out), np.asarray(expected))
    assert set(cf.profile.executor_summary()["executor.launches"]) == {tier}
