"""Kernel execution on the simulated device.

The executor compiles kernel IR to Python source (one generator function
per work-item; ``barrier()`` becomes ``yield`` and the scheduler resumes
every item of the work-group in lockstep phases), then runs it over an
NDRange. It produces two things:

- the actual output buffers — the simulator *computes real results*,
  which the tests compare against the host interpreter and NumPy
  references;
- a :class:`LaunchTrace`: per-straight-line-segment operation counts and
  a per-access-site memory trace (which work-item touched which address,
  in which order), from which :mod:`repro.opencl.timing` derives
  coalescing, bank-conflict, cache, and broadcast behavior. The trace
  carries its launch shape and a digest of the buffers' contents, and
  the timing model analyses each such launch once per device.

Kernels also compile to one whole-NDRange NumPy function (the batch
tier): :class:`_BatchCodegen` subclasses the per-item codegen, so all
three sources (per-item, sanitized, batch) share one traversal. The
batch traversal is also the batch tier's one eligibility decision: it
stops with a typed reason where it cannot mirror per-item exactly, and
:class:`CompiledKernel` records the outcome once, at construction.

Integer arithmetic wraps to 32 (``long``: 64) bits at ``+ - *``,
negation, complement, shifts and casts; floats compute in double
precision and round on store into ``float`` buffers, matching the host
interpreter's conventions.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import threading

import numpy as np

from repro.backend import kernel_ir as K
from repro.errors import DeviceError
from repro.opencl import timing as _timing
from repro.runtime.tracing import NULL_TRACER

# Execution-tier knob: "auto" runs eligible kernels on the vectorized
# batch tier and everything else per-item; "batch" is the same
# preference stated explicitly; "per-item" forces the scalar tier.
# Guarded (sanitizer-instrumented) launches always run per-item.
EXEC_TIER_ENV = "REPRO_EXEC_TIER"
EXEC_TIERS = ("auto", "batch", "per-item")

# Global codegen counter: bumped every time kernel IR is actually
# translated to Python (per-item, sanitized, or batch). The compilation
# cache's acceptance test is that relaunching an identical kernel does
# not move this counter.
_codegen_compiles = 0


def codegen_compiles():
    """How many kernel-IR -> Python compilations have run so far."""
    return _codegen_compiles


def _count_codegen():
    global _codegen_compiles
    _codegen_compiles += 1


def resolve_exec_tier(explicit=None):
    """The effective tier: an explicit request wins, then the
    ``REPRO_EXEC_TIER`` environment variable, then ``auto``."""
    tier = explicit or os.environ.get(EXEC_TIER_ENV) or "auto"
    if tier not in EXEC_TIERS:
        raise DeviceError(
            "unknown execution tier {!r} (choose from: {})".format(
                tier, ", ".join(EXEC_TIERS)
            )
        )
    return tier


# Bump when CompiledKernel.artifact()'s shape or the generated sources
# change: a mismatched on-disk kernel artifact is treated as a cache
# miss, never deserialized.
DISK_ARTIFACT_VERSION = 10


# ---------------------------------------------------------------------------
# Statistics containers
# ---------------------------------------------------------------------------


class SiteTrace:
    """Raw memory trace for one static access site.

    Accesses arrive as blocks, one :meth:`append_block` call each: the
    batch tier appends one per executed access site per iteration, a
    per-item launch one per site when it ends. Per-lane access order is
    preserved, which is all the timing model depends on.
    """

    __slots__ = ("space", "elem_bytes", "width", "is_store", "array", "blocks")

    def __init__(self, space, elem_bytes, width, is_store, array=None):
        self.space = space
        self.elem_bytes = elem_bytes
        self.width = width  # vector width (elements moved per access)
        self.is_store = is_store
        self.array = array  # buffer name (for the race sanitizer)
        # (global work-item ids, element indices in units of width):
        # int64 array pairs.
        self.blocks = []

    def append_block(self, lanes, indices, count=None):
        """Record one vectorized visit to this site: ``lanes[i]``
        accessed element ``indices[i]`` (``indices`` may be a scalar,
        broadcast across ``count`` lanes)."""
        lanes = np.asarray(lanes, dtype=np.int64)
        if isinstance(indices, np.ndarray) and indices.ndim:
            indices = indices.astype(np.int64, copy=False)
        else:
            n = len(lanes) if count is None else count
            indices = np.full(n, indices, dtype=np.int64)
        self.blocks.append((lanes, indices))

    @property
    def accesses(self):
        return sum(len(b) for b, _ in self.blocks)

    @property
    def bytes_moved(self):
        return self.accesses * self.elem_bytes * self.width

    def arrays(self):
        """All accesses in order: ``(lanes, indices)``."""
        if len(self.blocks) == 1:
            return self.blocks[0]
        if not self.blocks:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        return (
            np.concatenate([b for b, _ in self.blocks]),
            np.concatenate([i for _, i in self.blocks]),
        )


# The op counters: one per instruction class the timing model prices.
_OP_KINDS = ("int", "long", "fp", "dp", "cmp", "branch", "trans_f", "trans_d")


class LaunchTrace:
    """Everything one kernel launch did, for the timing model."""

    def __init__(self, kernel_name, global_size, local_size):
        self.kernel_name = kernel_name
        self.global_size = global_size
        self.local_size = local_size
        self.tier = "per-item"  # which execution tier ran this launch
        self.op_cycles = dict.fromkeys(_OP_KINDS, 0)
        self.sites = {}
        self.barriers = 0
        # The launch shape plus a digest of the buffers' contents, and
        # the kernel's timing memo, which answers a launch timed before.
        self.shape = None
        self.memo = None
        # A reused launch carries the memo's timing and the DeviceModel
        # it was looked up for, records no sites and ran no item or
        # batch code.
        self.timing = None
        self.model = None

    @property
    def reused(self):
        return self.timing is not None

    @property
    def work_groups(self):
        return (self.global_size + self.local_size - 1) // self.local_size

    def total_ops(self):
        return sum(self.op_cycles.values())


# ---------------------------------------------------------------------------
# Expression / statement code generation
# ---------------------------------------------------------------------------

# Device math builtins: name -> (per-item, batch) spelling. The batch
# helpers (the batch runtime below) take lane arrays or scalars.
_MATH = {
    "sqrt": ("math.sqrt", "_vsqrt"),
    "native_sqrt": ("math.sqrt", "_vsqrt"),
    "rsqrt": ("_rsqrt", "_vrsqrt"),
    "native_rsqrt": ("_rsqrt", "_vrsqrt"),
    "sin": ("math.sin", "_vsin"),
    "native_sin": ("math.sin", "_vsin"),
    "cos": ("math.cos", "_vcos"),
    "native_cos": ("math.cos", "_vcos"),
    "tan": ("math.tan", "_vtan"),
    "native_tan": ("math.tan", "_vtan"),
    "exp": ("math.exp", "_vexp"),
    "native_exp": ("math.exp", "_vexp"),
    "log": ("math.log", "_vlog"),
    "native_log": ("math.log", "_vlog"),
    "floor": ("math.floor", "_vfloor"),
    "ceil": ("math.ceil", "_vceil"),
    "fabs": ("abs", "abs"),
    "abs": ("abs", "abs"),
    "pow": ("math.pow", "_vpow"),
    "native_powr": ("math.pow", "_vpow"),
    "atan2": ("math.atan2", "_vatan2"),
    "hypot": ("math.hypot", "_vhypot"),
    "min": ("min", "_vmin"),
    "max": ("max", "_vmax"),
    "fmin": ("min", "_vmin"),
    "fmax": ("max", "_vmax"),
}

# Two's-complement wrap to a kind's width: kind -> (per-item, batch).
# Per-item range-checks a walrus temp, so an in-range value costs no
# call and only an overflow reaches the helper. Arithmetic on char
# wraps to int; only a cast wraps to char.
_INT_WRAP = {
    "int": (
        "(_w if -0x80000000 <= (_w := {}) < 0x80000000 else _i32(_w))",
        "_vi32({})",
    ),
    "long": (
        "(_w if -0x8000000000000000 <= (_w := {}) < 0x8000000000000000"
        " else _i64(_w))",
        "_vi64({})",
    ),
    "char": ("(_w if -0x80 <= (_w := {}) < 0x80 else _i8(_w))", "_vi8({})"),
}

# Scalar casts: target kind -> (per-item, batch) conversion. An integer
# target wraps as arithmetic does.
_CASTS = {
    "int": (_INT_WRAP["int"][0].format("int({})"), "_vci32({})"),
    "long": (_INT_WRAP["long"][0].format("int({})"), "_vci64({})"),
    "char": (_INT_WRAP["char"][0].format("int({})"), "_vci8({})"),
    "float": ("_f32({})", "_vcf32({})"),
    "double": ("float({})", "_vcdbl({})"),
    "bool": ("bool({})", "_vcbool({})"),
}

# Integer division: (op, long?) -> (per-item, batch). A quotient wraps
# to its operand width, as on the host (INT_MIN / -1 is INT_MIN); a
# remainder always fits.
_INT_DIV = {
    ("/", False): (
        _INT_WRAP["int"][0].format("_idiv({}, {})"),
        _INT_WRAP["int"][1].format("_vidiv({}, {})"),
    ),
    ("/", True): (
        _INT_WRAP["long"][0].format("_idiv({}, {})"),
        _INT_WRAP["long"][1].format("_vidiv({}, {})"),
    ),
    ("%", False): ("_irem({}, {})", "_virem({}, {})"),
    ("%", True): ("_irem({}, {})", "_virem({}, {})"),
}

# Integer vector division: (op, lane kind) -> spelling over the NumPy
# lane arrays of the operands (the batch tier declines vector
# arithmetic). The batch helpers truncate as C does; a quotient wraps to
# the lane width, and a remainder always fits.
_VEC_DIV = {
    (op, kind): spelling
    for kind, (_item, lanes) in _INT_WRAP.items()
    for op, spelling in (
        ("/", lanes.format("_vidiv({}, {})")),
        ("%", "_virem({}, {})"),
    )
}

# Integer Math.abs: kind -> (per-item, batch). The minimum has no
# positive counterpart and stays itself, as on the host. Per-item tests
# the sign of a walrus temp, which costs less than wrapping abs().
_INT_ABS = {
    "int": (
        "(-_ab if (_ab := {}) < 0 and _ab != -0x80000000 else _ab)",
        "_vi32(abs({}))",
    ),
    "long": (
        "(-_ab if (_ab := {}) < 0 and _ab != -0x8000000000000000 else _ab)",
        "_vi64(abs({}))",
    ),
}

_WORKITEM_FUNCS = {
    "get_global_id": "_gid",
    "get_local_id": "_lid",
    "get_group_id": "_grp",
    "get_local_size": "_lsz",
    "get_global_size": "_gsz",
    "get_num_groups": "_ngrp",
}

_TRANSCENDENTALS = frozenset(
    {
        "sqrt",
        "native_sqrt",
        "rsqrt",
        "native_rsqrt",
        "sin",
        "native_sin",
        "cos",
        "native_cos",
        "tan",
        "native_tan",
        "exp",
        "native_exp",
        "log",
        "native_log",
        "pow",
        "native_powr",
        "atan2",
        "hypot",
    }
)


def _is_double(ktype):
    if isinstance(ktype, K.KScalar):
        return ktype.kind == "double"
    if isinstance(ktype, K.KVector):
        return ktype.base.kind == "double"
    return False


def _op_class(expr):
    """Which op counter an expression charges, or None."""
    if isinstance(expr, K.KBin):
        if expr.op in ("<", ">", "<=", ">=", "==", "!="):
            return "cmp", 1
        lanes = expr.ktype.width if isinstance(expr.ktype, K.KVector) else 1
        if _is_double(expr.ktype):
            return "dp", lanes
        if getattr(expr.ktype, "is_float", False) or (
            isinstance(expr.ktype, K.KVector) and expr.ktype.is_float
        ):
            return "fp", lanes
        if _is_long(expr.ktype):
            return "long", lanes
        return "int", lanes
    if isinstance(expr, K.KUn):
        if _is_double(expr.ktype):
            return "dp", 1
        if getattr(expr.ktype, "is_float", False):
            return "fp", 1
        return "int", 1
    if isinstance(expr, K.KCall):
        if expr.name in _TRANSCENDENTALS:
            return ("trans_d" if _is_double(expr.ktype) else "trans_f"), 1
        if expr.name in _MATH:
            return ("dp" if _is_double(expr.ktype) else "fp"), 1
        return None
    if isinstance(expr, K.KSelect):
        return "branch", 1
    return None


class _Codegen:
    """Translates one kernel to the source of a per-item generator.

    With ``sanitize=True`` the emitted code additionally calls a
    per-site checker ``_ck<site>(index[, value])`` *before* every memory
    access and a watchdog tick ``_wd()`` at the top of every loop
    iteration. The op-count segments and access sites are identical
    either way, so instrumented launches report the same profile.

    A per-item vector value is a Python list, so a loaded vector holds
    its values as in C; arithmetic on vectors runs on NumPy arrays of
    the operand's type and converts its result back.

    A pure integer expression, a wrapped ``+``, ``-`` or ``*`` whose
    operands are variables, constants, work-item ids or such
    expressions, is computed once at an eager position: its first use
    emits it into a temp, and later uses read the temp while it holds,
    that is until a variable it reads is assigned, a barrier, a loop
    boundary or the end of the block that made it. Every use still
    charges its ops.

    This is the one traversal behind every tier: :class:`_BatchCodegen`
    inherits it and overrides only the batch tier's spellings.
    """

    # Column of the (per-item, batch) tables, and the helper spellings
    # the batch tier replaces with lane-array versions.
    TIER = 0
    NOT = "(not {})"
    AND = "(({}) and ({}))"
    OR = "(({}) or ({}))"
    FDIV = "(({}) / ({}))"
    VEXT = "({}[{}])"
    VBUILD = "np.array([{0}], dtype={1}).tolist()"  # ({2}: lane count, batch only)
    VZERO = "[{0}] * {1}"  # ({2}: the NumPy dtype, batch only)
    VOPERAND = "np.array({0}, dtype={1})"
    VRESULT = "({}).tolist()"
    PRIVATE_SHAPE = "{}"

    def __init__(self, kernel, sanitize=False):
        self.kernel = kernel
        self.sanitize = sanitize
        self.lines = []
        self.indent = 1
        self.temp = 0
        self.segments = []  # op-count dicts, one per straight-line segment
        self.current_segment = None
        self.sites = {}  # site -> (space, elem_bytes, width, is_store, array)
        self.views = set()  # arrays read as scalars through a memoryview
        self.has_barrier = False
        self.lazy = 0  # how many operands that make no temp enclose this one
        # Code of a pure integer expression -> the temp holding it, and
        # every such temp ever made -> the variables it reads.
        self.held = {}
        self.temps = {}
        # Loop-context stack for break/continue translation: each entry
        # is ("plain", None) for loops whose Python form matches the IR
        # semantics directly, or ("wrapped", brk_var) for KFor loops
        # whose body is wrapped so that `continue` still reaches the
        # induction update.
        self.loop_stack = []

    # -- emission helpers ---------------------------------------------------

    def emit(self, line):
        self.lines.append("    " * self.indent + line)

    def fresh(self):
        self.temp += 1
        return "_t{}".format(self.temp)

    def _lane_count(self):
        """How many work-items run the current statement: one."""
        return "1"

    def _segment(self):
        """Current op-count accumulator; opens a new segment (with its
        counter bump emitted) when none is active."""
        if self.current_segment is None:
            self.emit("_segc[{}] += {}".format(len(self.segments), self._lane_count()))
            self.current_segment = dict.fromkeys(_OP_KINDS, 0)
            self.segments.append(self.current_segment)
        return self.current_segment

    def close_segment(self):
        self.current_segment = None

    def charge(self, expr):
        op = _op_class(expr)
        if op is not None:
            kind, n = op
            self._segment()[kind] += n

    def _iteration(self, induction):
        """Charge one loop test, plus the induction update of a for."""
        seg = self._segment()
        seg["cmp"] += 1
        seg["branch"] += 1
        seg["int"] += induction

    # -- expressions ----------------------------------------------------------

    def expr(self, e):
        """Return a Python expression string, emitting hoisted statements
        for loads as needed."""
        self._check_node(e)
        if isinstance(e, K.KConst):
            if isinstance(e.value, bool):
                return "True" if e.value else "False"
            if isinstance(e.value, float):
                if e.value != e.value:
                    return "math.nan"
                if e.value == float("inf"):
                    return "math.inf"
                if e.value == float("-inf"):
                    return "(-math.inf)"
            return repr(e.value)
        if isinstance(e, K.KVar):
            return self._var(e.name)
        if isinstance(e, K.KUn):
            return self._vector(e, self._unary(e))
        if isinstance(e, K.KBin):
            return self._vector(e, self._binary(e))
        if isinstance(e, K.KSelect):
            self.charge(e)
            return self._select(e)
        if isinstance(e, K.KCast):
            inner = self.expr(e.expr)
            if isinstance(e.ktype, K.KScalar):
                return _CASTS[e.ktype.kind][self.TIER].format(inner)
            return inner
        if isinstance(e, K.KCall):
            return self._vector(e, self._call(e))
        if isinstance(e, (K.KLoad, K.KImageLoad)):
            return self._load(e)
        if isinstance(e, K.KVecExtract):
            return self.VEXT.format(self.expr(e.vec), e.lane)
        if isinstance(e, K.KVecBuild):
            elems = ", ".join(self.expr(x) for x in e.elems)
            return self.VBUILD.format(
                elems, _np_dtype(e.ktype.base), self._lane_count()
            )
        raise DeviceError("cannot generate code for {}".format(type(e).__name__))

    def _check_node(self, node):
        """Raise :class:`_Ineligible` for a node this tier cannot
        spell (batch override)."""

    def _lazy(self, e):
        """An operand that makes and reads no temp: one per-item may
        skip (a ``?:`` arm or the right side of ``&&``/``||``), or a
        ``while`` condition. The batch tier evaluates a skippable
        operand on every lane, so its :meth:`_check_node` declines
        what can fault there."""
        self.lazy += 1
        value = self.expr(e)
        self.lazy -= 1
        return value

    def _held(self, e, value, left, right):
        """``value``, the code of the integer ``+ - *`` ``e`` with
        operand codes ``left`` and ``right``, read from a temp when
        ``e`` is pure and at an eager position: its first use emits the
        temp (batch override). A pure operand there is a temp already."""
        if self.lazy:
            return value
        reads = set()
        for operand, code in ((e.left, left), (e.right, right)):
            if code in self.temps:
                reads |= self.temps[code]
            elif isinstance(operand, K.KVar):
                reads.add(operand.name)
            elif not isinstance(operand, K.KConst) and not (
                isinstance(operand, K.KCall) and operand.name in _WORKITEM_FUNCS
            ):
                return value
        temp = self.held.get(value)
        if temp is None:
            temp = self.held[value] = self.fresh()
            self.temps[temp] = reads
            self.emit("{} = {}".format(temp, value))
        return temp

    def _assigned(self, name):
        """``name`` was just assigned: drop the temps that read it."""
        self.held = {
            code: temp
            for code, temp in self.held.items()
            if name not in self.temps[temp]
        }

    def _name(self, value):
        """A name holding ``value``: the temp it is, or a fresh one
        assigned it."""
        if value in self.temps:
            return value
        name = self.fresh()
        self.emit("{} = {}".format(name, value))
        return name

    def _var(self, name):
        return _pyname(name)

    def _select(self, e):
        # Evaluated then, cond, otherwise: temps are numbered in this
        # order.
        return "(({}) if ({}) else ({}))".format(
            self._lazy(e.then), self.expr(e.cond), self._lazy(e.otherwise)
        )

    def _operand(self, e, value):
        """``value``, the code of ``e``, as an operand of arithmetic: a
        per-item vector as a NumPy array of its type."""
        if isinstance(e.ktype, K.KVector):
            return self.VOPERAND.format(value, _np_dtype(e.ktype))
        return value

    def _vector(self, e, value):
        """The result of arithmetic: a per-item vector back as a list."""
        if isinstance(e.ktype, K.KVector):
            return self.VRESULT.format(value)
        return value

    def _unary(self, e):
        self.charge(e)
        operand = self._operand(e.operand, self.expr(e.operand))
        if e.op == "!":
            return self.NOT.format(operand)
        if e.op == "~" or (e.op == "-" and _is_int(e.ktype)):
            # Integer negation and complement wrap like _binary.
            return "({})".format(self._wrap(e.ktype, "{}({})".format(e.op, operand)))
        return "({}{})".format(e.op, operand)

    def _binary(self, e):
        self.charge(e)
        left = self._operand(e.left, self.expr(e.left))
        right = self._operand(
            e.right,
            self._lazy(e.right) if e.op in ("&&", "||") else self.expr(e.right),
        )
        op = e.op
        is_long = _is_long(e.ktype)
        is_int = _is_int(e.ktype)
        shift_mask = 63 if is_long else 31
        if op in ("/", "%") and is_int:
            return _INT_DIV[op, is_long][self.TIER].format(left, right)
        if (
            op in ("/", "%")
            and isinstance(e.ktype, K.KVector)
            and _is_int(e.ktype.base)
        ):
            return _VEC_DIV[op, e.ktype.base.kind].format(left, right)
        if op == "/" and not isinstance(e.ktype, K.KVector):
            return self.FDIV.format(left, right)
        if op in ("*", "+", "-") and is_int:
            return self._held(
                e,
                self._wrap(e.ktype, "({}) {} ({})".format(left, op, right)),
                left,
                right,
            )
        if op == "<<":
            return self._wrap(
                e.ktype, "({}) << (({}) & {})".format(left, right, shift_mask)
            )
        if op == ">>":
            return "(({}) >> (({}) & {}))".format(left, right, shift_mask)
        if op == ">>>":
            mask = "0xFFFFFFFFFFFFFFFF" if is_long else "0xFFFFFFFF"
            return self._wrap(
                e.ktype,
                "(({}) & {}) >> (({}) & {})".format(left, mask, right, shift_mask),
            )
        if op == "&&":
            return self.AND.format(left, right)
        if op == "||":
            return self.OR.format(left, right)
        return "(({}) {} ({}))".format(left, op, right)

    def _wrap(self, ktype, value):
        """``value`` wrapped to 64 bits for a long, else to 32."""
        kind = "long" if _is_long(ktype) else "int"
        return _INT_WRAP[kind][self.TIER].format(value)

    def _call(self, e):
        if e.name in _WORKITEM_FUNCS:
            return self._workitem(e.name)
        self.charge(e)
        if e.name == "abs" and getattr(e.ktype, "kind", None) in _INT_ABS:
            spelling = _INT_ABS[e.ktype.kind][self.TIER]
            return spelling.format(self.expr(e.args[0]))
        if e.name in _MATH:
            return "{}({})".format(
                _MATH[e.name][self.TIER],
                ", ".join(self._operand(a, self.expr(a)) for a in e.args),
            )
        raise DeviceError("unknown device builtin '{}'".format(e.name))

    def _workitem(self, name):
        return _WORKITEM_FUNCS[name]

    def _register_site(self, node, is_store):
        ktype = node.ktype
        if isinstance(ktype, K.KVector):
            elem_bytes = ktype.base.size
            width = ktype.width
        else:
            elem_bytes = ktype.size
            width = 1
        if isinstance(node, K.KImageLoad):
            space, array = K.Space.IMAGE, node.image
        else:
            space, array = node.space, node.array
        self.sites[node.site] = (space, elem_bytes, width, is_store, array)

    def _trace(self, site, index):
        """The call that records an access at ``site``."""
        # One bound ``list.append``: the launch knows which item ran.
        return "_ti{}({})".format(site, index)

    def _load(self, e):
        """A buffer load, or an image read: a 4-wide load at ``coord``.
        In an operand that may be skipped the load is one expression,
        so it is checked, read and traced only when the operand runs."""
        if e.site < 0:
            raise DeviceError("load without a site id (run assign_sites)")
        self._register_site(e, is_store=False)
        image = isinstance(e, K.KImageLoad)
        index = self.expr(e.coord if image else e.index)
        if image:
            array = _bufname(e.image, K.Space.GLOBAL)
        else:
            array = _bufname(e.array, e.space)
        # Private arrays are per-item; no trace needed.
        traced = isinstance(e.ktype, K.KVector) or e.space is not K.Space.PRIVATE
        if self.lazy:
            idx_var = self.fresh()
            steps = ["({} := {})".format(idx_var, index)]
            if self.sanitize:
                steps.append("_ck{}({})".format(e.site, idx_var))
            steps.append(self._load_form(e, array, idx_var))
            read = len(steps) - 1
            if traced:
                steps.append(self._trace(e.site, idx_var))
            return "({})[{}]".format(", ".join(steps), read)
        temp = self.fresh()
        idx_var = self._name(index)
        if self.sanitize:
            self.emit("_ck{}({})".format(e.site, idx_var))
        self.emit("{} = {}".format(temp, self._load_form(e, array, idx_var)))
        if traced:
            self.emit(self._trace(e.site, idx_var))
        return temp

    def _load_form(self, e, array, index):
        if isinstance(e.ktype, K.KVector):
            # A copy, as in C: a later store to the array leaves it be.
            return _slice(array, index, e.ktype.width) + ".tolist()"
        # A memoryview read gives the Python scalar ``arr.item(i)``
        # gives, without a method call.
        self.views.add(array)
        return "r{}[{}]".format(array, index)

    # -- statements ------------------------------------------------------------

    def stmt(self, s):
        self._check_node(s)
        if isinstance(s, K.KDecl):
            if s.init is not None:
                init = self.expr(s.init)
            elif isinstance(s.ktype, K.KVector):
                init = self.VZERO.format(
                    _zero(s.ktype.base), s.ktype.width, _np_dtype(s.ktype)
                )
            else:
                init = _zero(s.ktype)
            self._declare(s.name)
            init = self._materialize(s.name, init, s.ktype)
            self.emit("{} = {}".format(_pyname(s.name), init))
            self._assigned(s.name)
        elif isinstance(s, K.KAssign):
            value = self._materialize(s.name, self.expr(s.value))
            self.emit("{} = {}".format(_pyname(s.name), value))
            self._assigned(s.name)
        elif isinstance(s, K.KStore):
            self._store(s)
        elif isinstance(s, K.KIf):
            self._segment()["branch"] += 1
            cond = self.expr(s.cond)
            self.emit("if {}:".format(cond))
            self._block(s.then)
            if s.otherwise:
                self.emit("else:")
                self._block(s.otherwise)
            self.close_segment()
        elif isinstance(s, K.KFor):
            self._for(s)
        elif isinstance(s, K.KWhile):
            self._while(s)
        elif isinstance(s, K.KBarrier):
            self.has_barrier = True
            self.emit("yield 0")
            self.close_segment()
            self.held = {}
        elif isinstance(s, K.KReturn):
            self.emit("return")
            self.close_segment()
        elif isinstance(s, K.KBreak):
            if self.loop_stack and self.loop_stack[-1][0] == "wrapped":
                self.emit("{} = True".format(self.loop_stack[-1][1]))
            self.emit("break")
            self.close_segment()
        elif isinstance(s, K.KContinue):
            if self.loop_stack and self.loop_stack[-1][0] == "wrapped":
                self.emit("break")  # out of the one-iteration wrapper
            else:
                self.emit("continue")
            self.close_segment()
        elif isinstance(s, K.KComment):
            self.emit("# {}".format(s.text))
        else:
            raise DeviceError("cannot execute {}".format(type(s).__name__))

    def _materialize(self, name, value, ktype=None):
        """The value a declaration or assignment stores (batch override)."""
        return value

    def _declare(self, name):
        """Note that ``name`` is declared here (batch override)."""

    def _block(self, stmts):
        self.indent += 1
        self.close_segment()
        start = len(self.lines)
        outer = dict(self.held)
        for child in stmts:
            self.stmt(child)
        # The temps made here end with the block; the ones it killed
        # stay dead.
        self.held = {
            code: temp for code, temp in self.held.items() if outer.get(code) == temp
        }
        if all(line.lstrip().startswith("#") for line in self.lines[start:]):
            self.emit("pass")  # an empty body, or one of comments
        self.indent -= 1
        self.close_segment()

    def _loop_bounds(self, s, start):
        """Emit ``start`` formatted with the loop's lower bound, then
        its upper bound and step; return the bound and step temps."""
        self.emit(start.format(self.expr(s.lo)))
        self._assigned(s.var)
        hi = self.fresh()
        self.emit("{} = {}".format(hi, self.expr(s.hi)))
        step = self.fresh()
        self.emit("{} = {}".format(step, self.expr(s.step)))
        self.close_segment()
        return hi, step

    def _for(self, s):
        var = _pyname(s.var)
        hi, step = self._loop_bounds(s, var + " = {}")
        self.held = {}  # a loop boundary
        self.emit("while {} < {}:".format(var, hi))
        self.indent += 1
        if self.sanitize:
            self.emit("_wd()")
        self._iteration(induction=1)
        self._declare(s.var)
        if _has_loop_jumps(s.body):
            # A bare Python `continue` would skip the induction
            # update: wrap the body in a one-iteration loop so
            # `continue` becomes `break` out of the wrapper and the
            # update still runs; `break` sets a flag checked after.
            brk = self.fresh()
            self.emit("{} = False".format(brk))
            self.emit("for _once in (0,):")
            self.indent += 1
            self.loop_stack.append(("wrapped", brk))
            for child in s.body:
                self.stmt(child)
            self.loop_stack.pop()
            self.indent -= 1
            self.close_segment()
            self.emit("if {}:".format(brk))
            self.emit("    break")
        else:
            self.loop_stack.append(("plain", None))
            for child in s.body:
                self.stmt(child)
            self.loop_stack.pop()
        self.emit("{} += {}".format(var, step))
        self.indent -= 1
        self.close_segment()
        self.held = {}

    def _while(self, s):
        """``while True:``, then the condition: its loads are read,
        traced and checked on every test. The test, counted once per
        evaluation, is a segment of its own; the body starts another."""
        self.close_segment()
        self.held = {}  # a loop boundary
        self.emit("while True:")
        self.indent += 1
        self._iteration(induction=0)
        self.emit("if not ({}):".format(self._lazy(s.cond)))
        self.emit("    break")
        self.close_segment()
        if self.sanitize:
            self.emit("_wd()")
        self.loop_stack.append(("plain", None))
        for child in s.body:
            self.stmt(child)
        self.loop_stack.pop()
        self.indent -= 1
        self.close_segment()
        self.held = {}

    def _store(self, s):
        if s.site < 0:
            raise DeviceError("store without a site id (run assign_sites)")
        self._register_site(s, is_store=True)
        index = self.expr(s.index)
        value = self.expr(s.value)
        idx_var = self._name(index)
        if self.sanitize:
            val_var = self.fresh()
            self.emit("{} = {}".format(val_var, value))
            self.emit("_ck{}({}, {})".format(s.site, idx_var, val_var))
            value = val_var
        array = _bufname(s.array, s.space)
        self.emit(self._store_form(s, array, idx_var, value))
        if s.space is not K.Space.PRIVATE:
            self.emit(self._trace(s.site, idx_var))

    def _store_form(self, s, array, index, value):
        if isinstance(s.ktype, K.KVector):
            return "{} = {}".format(_slice(array, index, s.ktype.width), value)
        return "{}[{}] = {}".format(array, index, value)

    # -- top level --------------------------------------------------------------

    def generate(self):
        kernel = self.kernel
        # Private array declarations come first.
        for arr in kernel.arrays:
            if arr.space is K.Space.PRIVATE:
                self.emit(
                    "{} = np.zeros({}, dtype={})".format(
                        _bufname(arr.name, arr.space),
                        self.PRIVATE_SHAPE.format(arr.size),
                        _np_dtype(arr.ktype),
                    )
                )
        body = len(self.lines)
        for stmt in kernel.body:
            self.stmt(stmt)
        # The views scalar loads read, made once at item entry.
        self.lines[body:body] = [
            "    r{0} = memoryview({0})".format(array) for array in sorted(self.views)
        ]
        header = self._header(
            [_bufname(p.name, p.space) for p in kernel.params if p.is_pointer]
            + [_pyname(p.name) for p in kernel.params if not p.is_pointer]
        )
        return "\n".join([header] + self.lines), self.segments, self.sites

    def _header(self, args):
        """Finish the function body; return its ``def`` line, given the
        kernel's buffer and scalar parameters."""
        if not self.has_barrier:
            # Make every item function a generator uniformly.
            self.emit("if False:")
            self.emit("    yield 0")
        params = (
            ["_gid", "_lid", "_grp", "_lsz", "_gsz", "_ngrp", "_segc"]
            + args
            + [
                _bufname(a.name, a.space)
                for a in self.kernel.arrays
                if a.space is K.Space.LOCAL
            ]
            + ["_ti{}".format(site) for site in sorted(self.sites)]
        )
        if self.sanitize:
            params += ["_wd"] + [
                "_ck{}".format(site) for site in sorted(self.sites)
            ]
        return "def _item({}):".format(", ".join(params))


def _has_loop_jumps(stmts):
    """True when ``stmts`` contain a break/continue belonging to this
    loop level (not one captured by a nested loop)."""
    for stmt in stmts:
        if isinstance(stmt, (K.KBreak, K.KContinue)):
            return True
        if isinstance(stmt, K.KIf):
            if _has_loop_jumps(stmt.then) or _has_loop_jumps(stmt.otherwise):
                return True
        # Nested KFor/KWhile own their jumps: do not descend.
    return False


def _pyname(name):
    return "v_" + name


def _is_long(ktype):
    return isinstance(ktype, K.KScalar) and ktype.kind == "long"


def _is_int(ktype):
    return isinstance(ktype, K.KScalar) and ktype.kind in ("int", "long", "char")


def _slice(array, index, width):
    """A per-item vector access: ``width`` elements at ``index``."""
    return "{0}[{1} * {2} : {1} * {2} + {2}]".format(array, index, width)


def _bufname(name, space):
    return "m_" + name


def _np_dtype(ktype):
    base = ktype.base if isinstance(ktype, K.KVector) else ktype
    return {
        "bool": "np.bool_",
        "char": "np.int8",
        "int": "np.int32",
        "long": "np.int64",
        "float": "np.float32",
        "double": "np.float64",
    }[base.kind]


def _zero(ktype):
    """The zero of a scalar type."""
    if ktype.is_float:
        return "0.0"
    if ktype.kind == "bool":
        return "False"
    return "0"


# ---------------------------------------------------------------------------
# Batch (whole-ndrange vectorized) tier
# ---------------------------------------------------------------------------
#
# For branch-free, barrier-free kernels — the Figure 4 grid-stride shape
# every generated map kernel takes — the whole index space can execute
# as NumPy array expressions: one array op per IR node instead of one
# Python bytecode walk per node *per work-item*. The lowering keeps bit
# identity with the per-item tier (NaN-safe): integers compute in int64
# with the same explicit 32/64-bit wraps, floats compute in float64 and
# round at float32 stores/casts, and the transcendentals NumPy does not
# evaluate bit-identically to libm (tan/exp/log/pow/atan2/hypot) run
# element-wise through ``math``. Where that spelling cannot mirror the
# per-item tier bit-exactly — barriers, local memory, data-dependent
# inner loops, divergent branches, a fault on a lazily-evaluated path —
# the batch codegen raises :class:`_Ineligible` with the reason, and the
# kernel runs per-item.

_VARYING_WORKITEM = frozenset(
    {"get_global_id", "get_local_id", "get_group_id"}
)

# The batch declines that come from the kernel's work-group structure
# (LOCAL arrays, barriers) rather than from per-item control flow or
# spelling: kernel fusion reports these as ``barrier``.
GROUP_REASONS = frozenset({"local-memory tiling", "barrier synchronization"})


class _Ineligible(Exception):
    """The kernel cannot run on the batch tier; ``str`` is the reason."""


def _expr_varying(e, varying):
    """Conservative: may ``e`` evaluate differently across work-items?"""

    def dep(x):
        return _expr_varying(x, varying)

    if isinstance(e, K.KConst):
        return False
    if isinstance(e, K.KVar):
        return e.name in varying
    if isinstance(e, K.KCall):
        if e.name in _VARYING_WORKITEM:
            return True
        if e.name in _WORKITEM_FUNCS:
            return False
        return any(dep(a) for a in e.args)
    if isinstance(e, (K.KLoad, K.KImageLoad)):
        return True  # loads are varying unless proven otherwise
    if isinstance(e, K.KBin):
        return dep(e.left) or dep(e.right)
    if isinstance(e, K.KUn):
        return dep(e.operand)
    if isinstance(e, K.KCast):
        return dep(e.expr)
    if isinstance(e, K.KSelect):
        return dep(e.cond) or dep(e.then) or dep(e.otherwise)
    if isinstance(e, K.KVecExtract):
        return dep(e.vec)
    if isinstance(e, K.KVecBuild):
        return any(dep(x) for x in e.elems)
    return True


def _varying_vars(kernel):
    """Fixpoint of the set of variables that may differ across lanes."""
    varying = set()

    def visit(stmts):
        changed = False
        for s in stmts:
            if isinstance(s, K.KDecl):
                if (
                    s.name not in varying
                    and s.init is not None
                    and _expr_varying(s.init, varying)
                ):
                    varying.add(s.name)
                    changed = True
            elif isinstance(s, K.KAssign):
                if s.name not in varying and _expr_varying(s.value, varying):
                    varying.add(s.name)
                    changed = True
            elif isinstance(s, K.KFor):
                if s.var not in varying and any(
                    _expr_varying(b, varying) for b in (s.lo, s.hi, s.step)
                ):
                    varying.add(s.var)
                    changed = True
                changed |= visit(s.body)
            elif isinstance(s, K.KIf):
                changed |= visit(s.then)
                changed |= visit(s.otherwise)
            elif isinstance(s, K.KWhile):
                changed |= visit(s.body)
        return changed

    while visit(kernel.body):
        pass
    return varying


class _BatchCodegen(_Codegen):
    """Translates one kernel to a whole-ndrange function, or declines.

    The traversal is :class:`_Codegen`'s, so the straight-line segments
    and access sites come out the same as per-item — :class:`CompiledKernel`
    asserts this at build time — and the op counters/memory trace (hence
    the simulated timing) match the per-item tier exactly. The overrides
    below only respell values as lane arrays aligned to the active lane
    set:

    - at depth 0 (outside the grid-stride loop) every lane is active;
      varying values are full-length arrays aligned to ``_G0``
      (= ``arange(global_size)``);
    - inside the stride loop (depth 1) the active set is ``_A1`` (the
      lanes whose induction value is still below the bound); varying
      values are arrays aligned to it, and reads of varying variables
      declared outside re-align via ``[_A1]``.

    Where that spelling cannot mirror per-item bit-exactly, a hook
    raises :class:`_Ineligible` with the reason; this is the batch
    tier's only eligibility decision.
    """

    TIER = 1
    NOT = "_vnot({})"
    AND = "_vand({}, {})"
    OR = "_vor({}, {})"
    FDIV = "_vfdiv({}, {})"
    VEXT = "_vext({}, {})"
    VBUILD = "_vbuild([{0}], {1}, {2})"
    VZERO = "np.zeros({1}, dtype={2})"
    VOPERAND = "{0}"  # vectors are NumPy arrays already
    VRESULT = "{}"
    PRIVATE_SHAPE = "({}, _gsz)"  # per-lane private storage: a column each
    LANE_IDS = {"get_global_id": "_G", "get_local_id": "_L", "get_group_id": "_R"}

    def __init__(self, kernel):
        super().__init__(kernel)
        self.varying = _varying_vars(kernel)
        self.depth = 0
        self.var_depth = {}
        names = set()
        for stmt in K.walk_stmts(kernel.body):
            for e in K.walk_stmt_exprs(stmt):
                if isinstance(e, K.KCall):
                    names.add(e.name)
        self.uses_lid = "get_local_id" in names
        self.uses_grp = "get_group_id" in names

    def generate(self):
        for arr in self.kernel.arrays:
            if arr.space is K.Space.LOCAL:
                raise _Ineligible("local-memory tiling")
            if isinstance(arr.ktype, K.KVector) and arr.space is K.Space.PRIVATE:
                raise _Ineligible("vector private array")
        return super().generate()

    def _lane_count(self):
        return "_n{}".format(self.depth)

    def _cols(self):
        # Column selector for private (per-lane) arrays: lane position
        # == global id, so the active-lane index array doubles as it.
        return "_G0" if self.depth == 0 else "_A1"

    # -- expressions --------------------------------------------------------

    def _check_node(self, node):
        if isinstance(node, K.KImageLoad):
            raise _Ineligible("image loads")
        if isinstance(node, K.KBin):
            if node.op in ("/", "%") and self.lazy:
                raise _Ineligible("division on a lazily-evaluated path")
            if isinstance(node.ktype, K.KVector):
                raise _Ineligible("vector arithmetic")
            if node.op == ">>>" and _is_long(node.ktype):
                raise _Ineligible("64-bit unsigned shift")
        elif isinstance(node, K.KCall):
            if node.name in ("rsqrt", "native_rsqrt") and self.lazy:
                raise _Ineligible("rsqrt on a lazily-evaluated path")
        elif isinstance(node, (K.KLoad, K.KStore)):
            if isinstance(node.ktype, K.KVector) and node.space is K.Space.PRIVATE:
                raise _Ineligible("vector access to a private array")
            if self.lazy:
                raise _Ineligible("memory access on a lazily-evaluated path")
        elif isinstance(node, K.KBarrier):
            raise _Ineligible("barrier synchronization")
        elif isinstance(node, K.KWhile):
            raise _Ineligible("data-dependent while loop")
        elif isinstance(node, K.KIf):
            raise _Ineligible("divergent branch")
        elif isinstance(node, (K.KBreak, K.KContinue, K.KReturn)):
            raise _Ineligible("loop control jump")

    def _held(self, e, value, left, right):
        return value  # lane arrays: no temps

    def _var(self, name):
        if (
            self.depth == 1
            and self.var_depth.get(name, 0) == 0
            and name in self.varying
        ):
            return "{}[_A1]".format(_pyname(name))
        return _pyname(name)

    def _select(self, e):
        return "_vsel({}, {}, {})".format(
            self.expr(e.cond), self._lazy(e.then), self._lazy(e.otherwise)
        )

    def _workitem(self, name):
        if name in self.LANE_IDS:
            return self.LANE_IDS[name] + str(self.depth)
        return super()._workitem(name)  # _lsz / _gsz / _ngrp: uniform

    def _trace(self, site, index):
        return "_tr{}(_G{}, {}, _n{})".format(site, self.depth, index, self.depth)

    def _load_form(self, e, array, index):
        if isinstance(e.ktype, K.KVector):
            return "_vload({}, {}, {})".format(array, index, e.ktype.width)
        if e.space is K.Space.PRIVATE:
            return "_pload({}, {}, {})".format(array, index, self._cols())
        return "_gload({}, {})".format(array, index)

    def _store_form(self, s, array, index, value):
        if isinstance(s.ktype, K.KVector):
            return "_vstore({}, {}, {}, {})".format(
                array, index, value, s.ktype.width
            )
        if s.space is K.Space.PRIVATE:
            return "_pstore({}, {}, {}, {})".format(
                array, index, self._cols(), value
            )
        return "_gstore({}, {}, {})".format(array, index, value)

    # -- statements ---------------------------------------------------------

    def _declare(self, name):
        self.var_depth[name] = self.depth

    def _materialize(self, name, value, ktype=None):
        if name not in self.varying:
            return value
        if self.depth == 0 and isinstance(ktype, K.KVector):
            raise _Ineligible("varying vector variable at top level")
        if self.var_depth.get(name, 0) < self.depth:
            # One lane array per stride-loop iteration cannot carry a
            # value into the next. (stmt() declares a variable before
            # materializing it, so only an assignment gets here.)
            raise _Ineligible("cross-iteration assignment to an outer variable")
        # Outside the stride loop a varying variable holds a full-length
        # lane array, even when this value is uniform.
        if self.depth == 0:
            return "_mat({}, _n0)".format(value)
        return value

    def _for(self, s):
        if any(_expr_varying(b, self.varying) for b in (s.lo, s.hi, s.step)):
            self._stride_loop(s)
            return
        # A uniform trip count is a plain (scalar) Python loop that
        # every active lane marches through in lockstep, unless the body
        # gives the variable a value that differs across lanes.
        if s.var in self.varying:
            raise _Ineligible("lane-varying loop variable")
        super()._for(s)

    def _stride_loop(self, s):
        hi, step = self._loop_bounds(
            s, "_cur = np.array(_mat({}, _n0), dtype=np.int64)"
        )
        # The grid-stride loop: per-lane trip counts, handled by masked
        # iteration, but only at the top level.
        if self.depth or self.loop_stack:
            raise _Ineligible("nested data-dependent loop")
        outer = dict(self.var_depth)
        self.emit("while True:")
        self.indent += 1
        self.emit("_A1 = np.nonzero(_cur < {})[0]".format(hi))
        self.emit("if _A1.size == 0:")
        self.emit("    break")
        self.emit("_n1 = _A1.size")
        self.emit("_G1 = _G0[_A1]")
        if self.uses_lid:
            self.emit("_L1 = _L0[_A1]")
        if self.uses_grp:
            self.emit("_R1 = _R0[_A1]")
        self.emit("{} = _cur[_A1]".format(_pyname(s.var)))
        self.depth = 1
        self._iteration(induction=1)
        self._declare(s.var)
        for child in s.body:
            self.stmt(child)
        self.emit("_cur = _cur + ({})".format(step))
        self.depth = 0
        self.var_depth = outer  # the loop's declarations end with it
        self.indent -= 1
        self.close_segment()

    def _header(self, args):
        params = (
            ["_G0", "_L0", "_R0", "_lsz", "_gsz", "_ngrp", "_n0", "_segc"]
            + args
            + ["_tr{}".format(site) for site in sorted(self.sites)]
        )
        return "def _batch({}):".format(", ".join(params))


# ---------------------------------------------------------------------------
# Runtime support injected into generated code
# ---------------------------------------------------------------------------


def _i32(x):
    x &= 0xFFFFFFFF
    return x - 0x100000000 if x >= 0x80000000 else x


def _i64(x):
    x &= 0xFFFFFFFFFFFFFFFF
    return x - 0x10000000000000000 if x >= 0x8000000000000000 else x


def _i8(x):
    x &= 0xFF
    return x - 0x100 if x >= 0x80 else x


def _f32(x):
    return float(np.float32(x))


def _idiv(a, b):
    if b == 0:
        raise DeviceError("device integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _irem(a, b):
    if b == 0:
        raise DeviceError("device integer remainder by zero")
    return a - _idiv(a, b) * b


def _rsqrt(x):
    return 1.0 / math.sqrt(x)


# -- batch-tier vectorized runtime ------------------------------------------
#
# Each helper accepts both NumPy arrays (varying values) and Python
# scalars (uniform values) and reproduces the per-item helper's result
# element for element — including its error behavior, so a kernel that
# would fault per-item faults identically in batch.


def _mat(x, n):
    """Materialize a uniform value as a full-length lane array."""
    if isinstance(x, np.ndarray):
        return x
    return np.broadcast_to(np.asarray(x), (n,))


def _vi32(x):
    # Pure two's-complement formula: correct for Python ints and for
    # int64 arrays alike (matches _i32 exactly on scalars).
    return ((x & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000


def _vi64(x):
    if isinstance(x, np.ndarray):
        return x  # int64 arithmetic already wraps mod 2**64
    return _i64(x)


def _vi8(x):
    return ((x & 0xFF) ^ 0x80) - 0x80


def _toint(x):
    if isinstance(x, np.ndarray):
        if x.dtype.kind != "f":
            return x.astype(np.int64)
        if np.all(np.abs(x) < 2.0**63):
            return np.trunc(x).astype(np.int64)
        # NaN, infinity or beyond int64: per lane through int(), which
        # raises or wraps exactly like the per-item cast.
        return np.array([_i64(int(v)) for v in x.tolist()], dtype=np.int64)
    return int(x)


def _vci32(x):
    return _vi32(_toint(x))


def _vci64(x):
    return _vi64(_toint(x))


def _vci8(x):
    return _vi8(_toint(x))


def _vcf32(x):
    if isinstance(x, np.ndarray):
        return x.astype(np.float32).astype(np.float64)
    return _f32(x)


def _vcdbl(x):
    if isinstance(x, np.ndarray):
        return x.astype(np.float64)
    return float(x)


def _vcbool(x):
    if isinstance(x, np.ndarray):
        return x.astype(bool)
    return bool(x)


def _vnot(x):
    if isinstance(x, np.ndarray):
        return np.logical_not(x)
    return not x


def _vand(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.logical_and(a, b)
    return a and b


def _vor(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.logical_or(a, b)
    return a or b


def _vsel(c, t, o):
    if isinstance(c, np.ndarray):
        if (isinstance(t, np.ndarray) and t.ndim == 2) or (
            isinstance(o, np.ndarray) and o.ndim == 2
        ):
            c = c[:, None]  # lane condition selecting whole vectors
        return np.where(c, t, o)
    return t if c else o


def _vmin(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.where(b < a, b, a)  # min()'s first-wins NaN behavior
    return min(a, b)


def _vmax(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.where(b > a, b, a)
    return max(a, b)


def _vidiv(a, b):
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return _idiv(a, b)
    # In int64, whatever the lane type: a per-item vector's lanes are
    # int32 (or int8), and INT_MIN / -1 must not overflow before the
    # caller wraps it.
    b_arr = np.asarray(b, dtype=np.int64)
    if not np.all(b_arr != 0):
        raise DeviceError("device integer division by zero")
    a_arr = np.asarray(a, dtype=np.int64)
    q = np.floor_divide(a_arr, b_arr)
    r = a_arr - q * b_arr
    # C truncates toward zero; floor_divide floors. They differ by one
    # exactly when the remainder is nonzero and the signs disagree.
    return q + ((r != 0) & ((a_arr < 0) != (b_arr < 0)))


def _virem(a, b):
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return _irem(a, b)
    return np.asarray(a, dtype=np.int64) - _vidiv(a, b) * np.asarray(
        b, dtype=np.int64
    )


def _vfdiv(a, b):
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return a / b
    if not np.all(np.asarray(b) != 0):
        raise ZeroDivisionError("float division by zero")
    return a / b


def _vsqrt(x):
    if not isinstance(x, np.ndarray):
        return math.sqrt(x)
    if np.any(x < 0):
        raise ValueError("math domain error")
    return np.sqrt(x)  # bit-identical to math.sqrt on float64


def _vrsqrt(x):
    if not isinstance(x, np.ndarray):
        return _rsqrt(x)
    if np.any(x < 0):
        raise ValueError("math domain error")
    if not np.all(x != 0):
        raise ZeroDivisionError("float division by zero")
    return 1.0 / np.sqrt(x)


def _vfloor(x):
    if isinstance(x, np.ndarray):
        return np.floor(x)  # bit-identical to math.floor on float64
    return math.floor(x)


def _vceil(x):
    if isinstance(x, np.ndarray):
        return np.ceil(x)
    return math.ceil(x)


def _lift1(f):
    """Element-wise lift of a libm function NumPy does not reproduce
    bit-identically (verified: np.tan/exp/log differ from math.* in the
    last ulp on a fraction of inputs)."""
    ufunc = np.frompyfunc(f, 1, 1)

    def lifted(x):
        if isinstance(x, np.ndarray):
            return ufunc(x).astype(np.float64)
        return f(x)

    return lifted


def _lift2(f):
    ufunc = np.frompyfunc(f, 2, 1)

    def lifted(a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return ufunc(a, b).astype(np.float64)
        return f(a, b)

    return lifted


# np.sin/np.cos agree with math.sin/math.cos bit for bit on float64;
# the rest do not and must go through the scalar libm path.
def _vsin(x):
    return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


def _vcos(x):
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


_vtan = _lift1(math.tan)
_vexp = _lift1(math.exp)
_vlog = _lift1(math.log)
_vpow = _lift2(math.pow)
_vatan2 = _lift2(math.atan2)
_vhypot = _lift2(math.hypot)


def _upcast(vals):
    """Lane values in the per-item tier's Python types: float64, bool
    or int64."""
    if vals.dtype.kind == "f":
        return vals.astype(np.float64)
    if vals.dtype.kind == "b":
        return vals
    return vals.astype(np.int64)


def _gload(buf, ix):
    """Global/constant gather; mirrors ``buf.item(ix)`` per lane."""
    if isinstance(ix, np.ndarray):
        return _upcast(buf[ix])
    return buf.item(ix)


def _gstore(buf, ix, val):
    """Global scatter. NumPy fancy assignment resolves duplicate
    indices last-wins in lane order — the same winner as the per-item
    tier's ascending-gid sequential stores."""
    if isinstance(ix, np.ndarray):
        buf[ix] = val
    elif isinstance(val, np.ndarray):
        buf[ix] = val[-1]
    else:
        buf[ix] = val


def _pload(arr, ix, cols):
    """Private (per-lane columns) gather with the per-item upcast."""
    return _upcast(arr[ix, cols])


def _pstore(arr, ix, cols, val):
    arr[ix, cols] = val


def _vload(buf, ix, width):
    """Vector load; stays in the buffer's native dtype like the
    per-item tier's slice views."""
    if isinstance(ix, np.ndarray):
        return buf[np.asarray(ix)[:, None] * width + np.arange(width)]
    return buf[ix * width : ix * width + width]


def _vstore(buf, ix, val, width):
    if isinstance(ix, np.ndarray):
        buf[np.asarray(ix)[:, None] * width + np.arange(width)] = val
    elif isinstance(val, np.ndarray) and val.ndim == 2:
        buf[ix * width : ix * width + width] = val[-1]
    else:
        buf[ix * width : ix * width + width] = val


def _vext(vec, lane):
    if isinstance(vec, np.ndarray) and vec.ndim == 2:
        return _upcast(vec[:, lane])
    return vec.item(lane)


def _vbuild(elems, dtype, n):
    if any(isinstance(e, np.ndarray) for e in elems):
        cols = [
            e if isinstance(e, np.ndarray) else np.full(n, e) for e in elems
        ]
        return np.stack(cols, axis=-1).astype(dtype)
    return np.array(elems, dtype=dtype)


_GLOBALS = {
    "np": np,
    "math": math,
    "_i32": _i32,
    "_i64": _i64,
    "_i8": _i8,
    "_f32": _f32,
    "_idiv": _idiv,
    "_irem": _irem,
    "_rsqrt": _rsqrt,
    "min": min,
    "max": max,
    "abs": abs,
    # batch-tier helpers
    "_mat": _mat,
    "_vi32": _vi32,
    "_vi64": _vi64,
    "_vi8": _vi8,
    "_vci32": _vci32,
    "_vci64": _vci64,
    "_vci8": _vci8,
    "_vcf32": _vcf32,
    "_vcdbl": _vcdbl,
    "_vcbool": _vcbool,
    "_vnot": _vnot,
    "_vand": _vand,
    "_vor": _vor,
    "_vsel": _vsel,
    "_vmin": _vmin,
    "_vmax": _vmax,
    "_vidiv": _vidiv,
    "_virem": _virem,
    "_vfdiv": _vfdiv,
    "_vsqrt": _vsqrt,
    "_vrsqrt": _vrsqrt,
    "_vfloor": _vfloor,
    "_vceil": _vceil,
    "_vsin": _vsin,
    "_vcos": _vcos,
    "_vtan": _vtan,
    "_vexp": _vexp,
    "_vlog": _vlog,
    "_vpow": _vpow,
    "_vatan2": _vatan2,
    "_vhypot": _vhypot,
    "_gload": _gload,
    "_gstore": _gstore,
    "_pload": _pload,
    "_pstore": _pstore,
    "_vload": _vload,
    "_vstore": _vstore,
    "_vext": _vext,
    "_vbuild": _vbuild,
}


# ---------------------------------------------------------------------------
# The compiled kernel and the NDRange scheduler
# ---------------------------------------------------------------------------


def _exec_source(source, label, function):
    """Compile generated ``source`` under the file name ``label``;
    return the function it defines."""
    namespace = dict(_GLOBALS)
    exec(compile(source, label, "exec"), namespace)
    return namespace[function]


def _generate(kernel):
    """Codegen for a site-assigned kernel: the stored fields of a
    :class:`CompiledKernel`. The batch source is None when the kernel
    declines the batch tier, and ``batch_reason`` says why."""
    source, segments, sites = _Codegen(kernel).generate()
    _count_codegen()
    try:
        batch_source, batch_segments, batch_sites = _BatchCodegen(kernel).generate()
        # Safety net: the batch codegen must reproduce the per-item
        # segments and sites exactly, since that equivalence is what
        # makes the simulated timing identical.
        if (batch_segments, batch_sites) != (segments, sites):
            raise _Ineligible("batch codegen diverged from per-item segments/sites")
    except _Ineligible as reason:
        batch_source, batch_reason = None, str(reason)
    else:
        _count_codegen()
        batch_reason = ""
    return {
        "source": source,
        "segments": segments,
        "site_meta": sites,
        "sanitized_source": None,
        "batch_source": batch_source,
        "batch_reason": batch_reason,
    }


class CompiledKernel:
    """A kernel ready to launch on the simulator.

    Everything about the kernel is decided at construction: the
    per-item source (its segments and sites are the timing model's
    inputs), and the batch source or the reason the kernel declines the
    batch tier.
    Compiled kernels are shared across concurrent serving sessions via
    the content-addressed cache, so after construction only the lazy
    builds below mutate one (under a lock), plus the timing memo.
    """

    def __init__(self, kernel, stored=None):
        """Compile ``kernel``, or with ``stored`` (an :meth:`artifact`)
        adopt its sources: then codegen never runs, so
        :func:`codegen_compiles` stays untouched (the warm-restart
        "zero recompiles" guarantee)."""
        disk = stored is not None
        if not disk:
            K.assign_sites(kernel)
            stored = _generate(kernel)
        self.kernel = kernel
        self.source = stored["source"]
        self.segments = stored["segments"]
        self.site_meta = stored["site_meta"]
        # Generated on the first guarded launch: a guard-free run
        # never builds the instrumented variant.
        self.sanitized_source = stored["sanitized_source"]
        self.batch_source = stored["batch_source"]
        self.batch_reason = stored["batch_reason"]
        # (launch shape + buffer digest, DeviceModel) -> KernelTiming,
        # filled by timing.time_launch. Sessions sharing this kernel
        # share it: each lookup and store is one dict operation, so a
        # race at worst analyses one launch twice.
        self.timings = {}
        # (tier, launch shape) -> (digest of the buffers, the stored-to
        # buffers' contents afterwards) of the last launch that may be
        # reused: a launch repeating its inputs copies them out. Shared
        # like the timings, and its arrays are only ever copied from.
        self.results = {}
        stores = {meta[4] for meta in self.site_meta.values() if meta[3]}
        self._outputs = [
            p.name for p in kernel.params if p.is_pointer and p.name in stores
        ]
        # Each source is exec'd on its first launch, so a kernel that
        # always runs batch never execs its per-item source.
        self._functions = {}
        self._origin = ":disk" if disk else ""
        self._lazy_lock = threading.Lock()

    @property
    def batch_supported(self):
        return self.batch_source is not None

    def artifact(self):
        """A picklable snapshot for the content-addressed on-disk kernel
        store: the (site-assigned) kernel IR plus every generated
        source, so a process restored from it never re-runs codegen."""
        return {
            "version": DISK_ARTIFACT_VERSION,
            "kernel": self.kernel,
            "source": self.source,
            "segments": self.segments,
            "site_meta": self.site_meta,
            "sanitized_source": self.sanitized_source,
            "batch_source": self.batch_source,
            "batch_reason": self.batch_reason,
        }

    @classmethod
    def from_artifact(cls, art):
        """Rebuild a launchable kernel from :meth:`artifact` output."""
        if art.get("version") != DISK_ARTIFACT_VERSION:
            raise ValueError(
                "kernel artifact version mismatch: {!r}".format(
                    art.get("version")
                )
            )
        return cls(art["kernel"], art)

    def _function(self, variant, source, name):
        """The function ``name`` that ``source`` defines, exec'd once;
        ``variant`` labels it in tracebacks."""
        fn = self._functions.get(variant)
        if fn is None:
            with self._lazy_lock:
                fn = self._functions.get(variant)
                if fn is None:
                    label = "<kernel:{}{}{}>".format(
                        self.kernel.name, variant, self._origin
                    )
                    fn = self._functions[variant] = _exec_source(source, label, name)
        return fn

    def _item(self):
        return self._function("", self.source, "_item")

    def _sanitized_item(self):
        if self.sanitized_source is None:
            with self._lazy_lock:
                if self.sanitized_source is None:
                    codegen = _Codegen(self.kernel, sanitize=True)
                    self.sanitized_source = codegen.generate()[0]
                    _count_codegen()
        return self._function(":sanitized", self.sanitized_source, "_item")

    def _batch_callable(self):
        """The whole-ndrange function, or None when the kernel runs
        per-item."""
        if self.batch_source is None:
            return None
        return self._function(":batch", self.batch_source, "_batch")

    def launch(
        self,
        buffers,
        scalars,
        global_size,
        local_size,
        injector=None,
        guard=None,
        tier="auto",
        tracer=None,
        index_base=0,
        device=None,
        model=None,
    ):
        """Execute the NDRange.

        Args:
            buffers: dict param-name -> 1-D NumPy array (modified in
                place for output buffers).
            scalars: dict param-name -> Python scalar.
            global_size / local_size: NDRange configuration;
                ``global_size`` must be a multiple of ``local_size``.
            injector: optional fault injector
                (:class:`repro.runtime.resilience.FaultInjector`); when
                set, the launch may be aborted with a
                :class:`repro.errors.LaunchFault` before any work-item
                runs — output buffers are untouched, so the launch is
                safely retryable.
            guard: optional per-launch
                :class:`repro.runtime.sanitizer.LaunchGuard`; when set,
                the instrumented item code runs instead — every access
                is bounds/NaN-checked before executing, loops tick the
                watchdog, the scheduler flags barrier divergence, and
                the memory trace is scanned for data races post-launch.
                Trips raise :class:`repro.errors.SanitizerFault`
                subclasses. Guarded launches always run per-item.
            tier: execution-tier request ("auto"/"batch"/"per-item").
                Ineligible kernels fall back per-item either way; the
                tier that actually ran is recorded in ``trace.tier``.
            tracer: optional :class:`repro.runtime.tracing.Tracer`; the
                launch runs inside a "device" span (zero simulated
                duration — the timing model charges the kernel stage
                afterwards — but real wall-clock cost), and the
                post-launch race scan gets its own "sanitizer_scan"
                span.
            index_base: offset added to every work-item's global id —
                the glue's OOM-partitioned relaunch covers the index
                range ``[index_base, index_base + coverage)`` of a
                split NDRange with otherwise-identical per-index
                computation (grid-stride kernels stride from
                ``get_global_id(0)`` by ``global_size``). Offset
                launches always run per-item: the batch codegen assumes
                lane ids start at 0.
            device: fleet device key, if any — routed to the injector
                (per-device fault specs and the kill switch) and tagged
                on the "device" span so the Chrome exporter can give
                each fleet member its own track.
            model: the :class:`repro.opencl.device.DeviceModel` the
                caller will time this launch on, if known. An unguarded
                launch given it may be reused: when its buffers hold
                what the last such launch of its tier and shape held,
                and the memo has that launch's timing on ``model``, it
                copies that launch's outputs and runs nothing; its trace
                records no sites and carries that timing.

        Returns a :class:`LaunchTrace`.
        """
        if tracer is None:
            tracer = NULL_TRACER
        kernel = self.kernel
        if injector is not None:
            injector.maybe_fail_launch(kernel.name, device=device)
        if global_size % local_size != 0:
            raise DeviceError(
                "global size {} is not a multiple of local size {}".format(
                    global_size, local_size
                )
            )
        trace = LaunchTrace(kernel.name, global_size, local_size)

        buffer_args = []
        for param in kernel.params:
            if param.is_pointer:
                if param.name not in buffers:
                    raise DeviceError(
                        "missing buffer argument '{}'".format(param.name)
                    )
                buffer_args.append(buffers[param.name])
        scalar_args = []
        for param in kernel.params:
            if not param.is_pointer:
                if param.name not in scalars:
                    raise DeviceError(
                        "missing scalar argument '{}'".format(param.name)
                    )
                scalar_args.append(scalars[param.name])
        shape = (
            global_size,
            local_size,
            index_base,
            tuple(_scalar_bits(v) for v in scalar_args),
        )
        # The trace is a function of the shape and the buffers' contents.
        digest = _digest(buffer_args)
        trace.shape = shape + (digest,)
        trace.memo = self.timings

        # The "device" span's args; "tier" is filled in per tier.
        span_args = dict(
            kernel=kernel.name,
            tier=None,
            global_size=global_size,
            local_size=local_size,
        )
        if device is not None:
            span_args["device"] = device
        if index_base:
            span_args["index_base"] = index_base

        batch_fn = None
        if guard is None and index_base == 0 and tier in ("auto", "batch"):
            batch_fn = self._batch_callable()
        slot = None
        if guard is None and model is not None:
            slot = ("batch" if batch_fn else "per-item", shape), digest
            if self._reuse(trace, slot, model, buffers, tracer, span_args):
                return trace
        if batch_fn is not None:
            span_args["tier"] = "batch"
            with tracer.span("device", cat="executor", **span_args):
                self._launch_batch(
                    batch_fn,
                    trace,
                    buffer_args,
                    scalar_args,
                    global_size,
                    local_size,
                )
            return self._keep(slot, trace, buffers)

        local_specs = [a for a in kernel.arrays if a.space is K.Space.LOCAL]
        n_groups = global_size // local_size

        seg_counts, site_traces = self._records()
        sorted_sites = sorted(site_traces)
        # Each site's bound append takes the element index; the
        # scheduler records which item ran each step, and how far
        # every site's list had grown when the step ended.
        index_lists = [[] for _ in sorted_sites]
        tail = [indices.append for indices in index_lists]
        step_gids, step_ends = [], []
        # Guarded launches run the instrumented item code with one
        # checker per site plus the watchdog tick.
        if guard is not None:
            trace.tier = "sanitized"
            item_fn = self._sanitized_item()
            tail += [guard.tick] + self._make_checkers(
                guard, sorted_sites, buffers, local_size
            )
        else:
            item_fn = self._item()
        lead = [seg_counts] + buffer_args + scalar_args

        span_args["tier"] = trace.tier
        with tracer.span("device", cat="executor", **span_args):
            for group in range(n_groups):
                local_mem = [
                    np.zeros(
                        self._local_size_elems(spec, local_size),
                        _np_dtype_of(spec),
                    )
                    for spec in local_specs
                ]
                items = []
                for lid in range(local_size):
                    gid = index_base + group * local_size + lid
                    gen = item_fn(
                        gid,
                        lid,
                        group,
                        local_size,
                        global_size,
                        n_groups,
                        *lead,
                        *local_mem,
                        *tail,
                    )
                    items.append((gid, gen))
                # Lockstep phases between barriers.
                live = items
                while live:
                    next_live = []
                    stopped = 0
                    for item in live:
                        try:
                            next(item[1])
                            next_live.append(item)
                        except StopIteration:
                            stopped += 1
                        except IndexError as err:
                            raise self._out_of_bounds(err) from err
                        step_gids.append(item[0])
                        step_ends.extend(map(len, index_lists))
                    if guard is not None:
                        guard.phase_check(group, len(next_live), stopped)
                    if next_live:
                        trace.barriers += 1
                    live = next_live

        _append_runs(
            [site_traces[site] for site in sorted_sites],
            index_lists,
            step_gids,
            step_ends,
        )
        self._finish_trace(trace, seg_counts, site_traces)
        if guard is not None:
            with tracer.span(
                "sanitizer_scan", cat="executor", kernel=kernel.name
            ):
                guard.scan_races(site_traces)
        return self._keep(slot, trace, buffers)

    def _reuse(self, trace, slot, model, buffers, tracer, span_args):
        """Answer a launch whose buffers hold what the last launch of
        its slot's tier and shape held: copy that launch's outputs into
        ``buffers`` and carry the memo's timing on ``model``. False,
        with nothing done, when the slot holds other contents or the
        memo has no such timing."""
        key, digest = slot
        last = self.results.get(key)  # one dict read
        if last is None or last[0] != digest:
            return False
        # One dict read, so a concurrent memo clear cannot lose it.
        timing = self.timings.get((trace.shape, model))
        if timing is None:
            return False
        trace.tier = span_args["tier"] = key[0]
        trace.timing, trace.model = timing, model
        with tracer.span("device", cat="executor", reused=True, **span_args):
            for name, stored in last[1]:
                np.copyto(buffers[name], stored)
        return True

    def _keep(self, slot, trace, buffers):
        """Store a reusable launch's outputs in its slot; a full memo is
        emptied first, as the timing memo is. Returns ``trace``."""
        if slot is not None:
            key, digest = slot
            if key not in self.results and len(self.results) >= _timing.MEMO_CAPACITY:
                self.results.clear()
            self.results[key] = digest, [
                (name, buffers[name].copy()) for name in self._outputs
            ]
        return trace

    def _records(self):
        """A fresh segment counter list and one empty
        :class:`SiteTrace` per access site, for a launch that runs."""
        # site_meta holds SiteTrace's arguments: (space, elem_bytes,
        # width, is_store, array).
        site_traces = {site: SiteTrace(*meta) for site, meta in self.site_meta.items()}
        return [0] * len(self.segments), site_traces

    def _launch_batch(
        self,
        batch_fn,
        trace,
        buffer_args,
        scalar_args,
        global_size,
        local_size,
    ):
        """Run the whole NDRange as array operations.

        Semantically identical to the per-item loop for eligible
        kernels: the same buffers are mutated with the same values
        (bit for bit, NaN-safe), the same segments are counted the
        same number of times, and every access site records the same
        per-lane access order — so the derived timing model sees no
        difference either.
        """
        trace.tier = "batch"
        seg_counts, site_traces = self._records()
        lanes = np.arange(global_size, dtype=np.int64)
        lids = lanes % local_size
        groups = lanes // local_size
        n_groups = global_size // local_size
        appenders = [site_traces[s].append_block for s in sorted(site_traces)]
        try:
            with np.errstate(all="ignore"):
                batch_fn(
                    lanes,
                    lids,
                    groups,
                    local_size,
                    global_size,
                    n_groups,
                    global_size,
                    seg_counts,
                    *buffer_args,
                    *scalar_args,
                    *appenders,
                )
        except IndexError as err:
            raise self._out_of_bounds(err) from err
        return self._finish_trace(trace, seg_counts, site_traces)

    def _out_of_bounds(self, err):
        return DeviceError(
            "kernel '{}': out-of-bounds buffer access ({})".format(
                self.kernel.name, err
            )
        )

    def _finish_trace(self, trace, seg_counts, site_traces):
        """Fold the executed segment counts into op cycles and attach
        the site traces: the same epilogue for every tier."""
        for seg_id, count in enumerate(seg_counts):
            for kind, ops in self.segments[seg_id].items():
                trace.op_cycles[kind] += ops * int(count)
        trace.sites = site_traces
        return trace

    def _make_checkers(self, guard, sorted_sites, buffers, local_size):
        """One bounds/NaN checker per access site, closed over the
        element capacity of the site's buffer."""
        kernel = self.kernel
        local_specs = {
            a.name: a for a in kernel.arrays if a.space is K.Space.LOCAL
        }
        private_specs = {
            a.name: a for a in kernel.arrays if a.space is K.Space.PRIVATE
        }
        limits = {}
        checkers = []
        for site in sorted_sites:
            space, _elem_bytes, width, _is_store, array = self.site_meta[site]
            if space is K.Space.LOCAL:
                spec = local_specs[array]
                limits[site] = self._local_size_elems(spec, local_size)
                is_float = _np_dtype_of(spec)().dtype.kind == "f"
            elif space is K.Space.PRIVATE:
                spec = private_specs[array]
                limits[site] = spec.size
                is_float = _np_dtype_of(spec)().dtype.kind == "f"
            else:  # GLOBAL / CONSTANT / IMAGE buffers come from the host
                buf = buffers[array]
                limits[site] = len(buf)
                is_float = buf.dtype.kind == "f"
            checkers.append(
                guard.make_checker(site, space, width, array, limits, is_float)
            )
        return checkers

    @staticmethod
    def _local_size_elems(spec, local_size):
        size = spec.size
        if size == -1:  # sized by work-group: local_size rows
            rows = local_size
            row = spec.row if spec.row else 1
            return rows * (row + spec.pad)
        if spec.pad and spec.row:
            rows = size // spec.row
            return rows * (spec.row + spec.pad)
        return size


def _append_runs(sites, index_lists, step_gids, step_ends):
    """Give each per-item site one block. ``index_lists[k]`` holds the
    element indices ``sites[k]`` recorded; step ``s`` ran the item
    ``step_gids[s]``, and at its end the lists had grown to
    ``step_ends[s * len(sites) : (s + 1) * len(sites)]``. A step runs
    one item alone, so each site's lanes are the steps' gids repeated
    by the accesses each step made there."""
    gids = np.array(step_gids, dtype=np.int64)
    ends = np.array(step_ends, dtype=np.int64).reshape(len(gids), len(sites))
    runs = np.diff(ends, axis=0, prepend=0)
    for k, (site, indices) in enumerate(zip(sites, index_lists)):
        # fromiter with a known count converts a list of Python ints
        # faster than np.asarray.
        site.append_block(
            np.repeat(gids, runs[:, k]),
            np.fromiter(indices, dtype=np.int64, count=len(indices)),
        )


def _np_dtype_of(spec):
    return getattr(np, _np_dtype(spec.ktype)[len("np."):])


def _scalar_bits(value):
    """A scalar argument as its type and exact bits, for a launch
    shape: ``0.0`` and ``-0.0``, or ``1`` and ``True``, differ."""
    if isinstance(value, np.generic):
        return type(value), value.tobytes()
    if isinstance(value, float):
        return float, struct.pack("<d", value)
    return type(value), value


def _digest(arrays):
    """A 128-bit digest of ``arrays`` in order, each one's dtype, shape
    and raw bytes: ``0.0`` and ``-0.0``, or two NaN payloads, differ."""
    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        digest.update("{}{};".format(array.dtype.str, array.shape).encode())
        digest.update(np.ascontiguousarray(array))
    return digest.digest()


def compile_kernel(kernel):
    """Compile kernel IR for the simulator (cached per kernel object)."""
    return CompiledKernel(kernel)
