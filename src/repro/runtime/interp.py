"""Tree-walking interpreter for checked Lime programs.

This is the "runs in an unmodified JVM" half of the paper's system: the
host-side execution path, the baseline that Figure 7 normalizes against,
and the semantic reference the device executor is differentially tested
against.

The interpreter optionally charges every dynamic operation to a
:class:`repro.runtime.cost.CostCounter` so that
:class:`repro.runtime.cost.JavaCostModel` can convert a run into
simulated JVM time.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RuntimeFault, UnderflowException
from repro.frontend import ast
from repro.frontend.types import (
    ArrayType,
    PrimKind,
    PrimType,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
)
from repro.runtime import values as rv
from repro.runtime.values import LimeObject

import math


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


def _math_rsqrt(x):
    return 1.0 / math.sqrt(x)


_MATH_FUNCS = {
    "sqrt": math.sqrt,
    "rsqrt": _math_rsqrt,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "floor": math.floor,
    "ceil": math.ceil,
    "abs": abs,
    "atan2": math.atan2,
    "pow": math.pow,
    "min": min,
    "max": max,
    "hypot": math.hypot,
}

_NON_TRANSCENDENTAL = frozenset({"floor", "ceil", "abs", "min", "max"})

_COMPARE = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


class Interpreter:
    """Executes methods of a :class:`CheckedProgram` on the host.

    Args:
        checked: the type-checked program.
        cost: optional :class:`CostCounter`; when provided, every dynamic
            operation is charged to it.
        task_factory: optional callable ``(interp, task_expr, env) ->
            value`` used to materialize ``task`` expressions; installed by
            the engine to avoid an import cycle. When absent, evaluating a
            ``task`` expression raises.
        printer: callable receiving ``Lime.print`` arguments.
    """

    def __init__(self, checked, cost=None, task_factory=None, printer=None):
        self.checked = checked
        self.cost = cost
        self.task_factory = task_factory
        self.printer = printer if printer is not None else lambda _val: None
        self._static_fields = {}
        self._init_statics()

    # -- public API -----------------------------------------------------------

    def call_static(self, class_name, method_name, args):
        """Invoke a static method and return its result."""
        method = self._method(class_name, method_name)
        if not method.is_static:
            raise RuntimeFault(
                "{}.{} is not static".format(class_name, method_name)
            )
        return self._invoke(method, None, list(args))

    def construct(self, class_name, args):
        """Instantiate a user class, running its constructor if any."""
        cls = self.checked.lookup_class(class_name)
        if cls is None:
            raise RuntimeFault("unknown class '{}'".format(class_name))
        obj = LimeObject(
            class_name,
            {f.name: self._default_value(f.type) for f in cls.fields if not f.is_static},
        )
        self._charge("alloc")
        ctor = cls.lookup_method("<init>")
        if ctor is not None:
            self._invoke(ctor, obj, list(args))
        elif args:
            raise RuntimeFault(
                "class '{}' has no constructor taking arguments".format(class_name)
            )
        return obj

    def call_instance(self, obj, method_name, args):
        """Invoke an instance method on a :class:`LimeObject`."""
        method = self._method(obj.class_name, method_name)
        if method.is_static:
            raise RuntimeFault(
                "{}.{} is static".format(obj.class_name, method_name)
            )
        return self._invoke(method, obj, list(args))

    def static_field(self, class_name, field_name):
        return self._static_fields[(class_name, field_name)]

    # -- setup ------------------------------------------------------------------

    def _init_statics(self):
        # Two passes: zero-init first so initializers can read other statics.
        for cls in self.checked.program.classes:
            for fld in cls.fields:
                if fld.is_static:
                    self._static_fields[(cls.name, fld.name)] = self._default_value(
                        fld.type
                    )
        for cls in self.checked.program.classes:
            for fld in cls.fields:
                if fld.is_static and fld.init is not None:
                    env = _Env(self, None, {})
                    self._static_fields[(cls.name, fld.name)] = self._coerce(
                        self.eval(fld.init, env), fld.type
                    )

    def _default_value(self, t):
        if isinstance(t, PrimType):
            if t.kind is PrimKind.BOOLEAN:
                return False
            if t.is_floating:
                return 0.0
            return 0
        return None

    def _method(self, class_name, method_name):
        method = self.checked.lookup_method(class_name, method_name)
        if method is None:
            raise RuntimeFault(
                "unknown method {}.{}".format(class_name, method_name)
            )
        return method

    def _charge(self, kind, n=1):
        if self.cost is not None:
            self.cost.charge(kind, n)

    # -- invocation ----------------------------------------------------------------

    def _invoke(self, method, receiver, args):
        if len(args) != len(method.params):
            raise RuntimeFault(
                "{} expects {} args, got {}".format(
                    method.qualified_name, len(method.params), len(args)
                )
            )
        self._charge("call")
        frame = {}
        for param, arg in zip(method.params, args):
            frame[param.name] = self._coerce(arg, param.type)
        env = _Env(self, receiver, frame)
        try:
            self.exec_stmt(method.body, env)
        except _Return as ret:
            return self._coerce(ret.value, method.return_type)
        return None

    def _coerce(self, value, t):
        """Apply implicit widening so stored values match their static
        type (int literal into a float slot, etc.)."""
        if isinstance(t, PrimType):
            if t.is_floating and isinstance(value, int):
                return float(value)
            if t.kind is PrimKind.FLOAT and isinstance(value, float):
                return value  # doubles round only at array stores / casts
        return value

    # -- statements -------------------------------------------------------------------

    def exec_stmt(self, stmt, env):
        kind = type(stmt)
        if kind is ast.Block:
            env.push()
            try:
                for child in stmt.stmts:
                    self.exec_stmt(child, env)
            finally:
                env.pop()
            return
        if kind is ast.VarDecl:
            value = (
                self.eval(stmt.init, env)
                if stmt.init is not None
                else self._default_value(stmt.type)
            )
            env.define(stmt.name, self._coerce(value, stmt.type))
            self._charge("local_access")
            return
        if kind is ast.ExprStmt:
            self.eval(stmt.expr, env)
            return
        if kind is ast.Assign:
            self._exec_assign(stmt, env)
            return
        if kind is ast.If:
            self._charge("branch")
            if self.eval(stmt.cond, env):
                self.exec_stmt(stmt.then, env)
            elif stmt.otherwise is not None:
                self.exec_stmt(stmt.otherwise, env)
            return
        if kind is ast.While:
            while True:
                self._charge("branch")
                if not self.eval(stmt.cond, env):
                    return
                try:
                    self.exec_stmt(stmt.body, env)
                except _Break:
                    return
                except _Continue:
                    continue
            return
        if kind is ast.For:
            env.push()
            try:
                if stmt.init is not None:
                    self.exec_stmt(stmt.init, env)
                while True:
                    self._charge("branch")
                    if stmt.cond is not None and not self.eval(stmt.cond, env):
                        return
                    try:
                        self.exec_stmt(stmt.body, env)
                    except _Break:
                        return
                    except _Continue:
                        pass
                    if stmt.update is not None:
                        self.exec_stmt(stmt.update, env)
            finally:
                env.pop()
            return
        if kind is ast.Return:
            value = self.eval(stmt.value, env) if stmt.value is not None else None
            raise _Return(value)
        if kind is ast.Break:
            raise _Break()
        if kind is ast.Continue:
            raise _Continue()
        if kind is ast.Throw:
            raise UnderflowException()
        raise RuntimeFault("cannot execute {}".format(kind.__name__))

    def _exec_assign(self, stmt, env):
        target = stmt.target
        if stmt.op is None:
            value = self.eval(stmt.value, env)
        else:
            current = self.eval(target, env)
            rhs = self.eval(stmt.value, env)
            value = self._binary_op(stmt.op, current, rhs, target.type)
            value = self._narrow(value, target.type)
        if isinstance(target, ast.Name):
            value = self._coerce(value, target.type)
            if target.binding == "local" or target.binding == "param":
                env.assign(target.name, value)
                self._charge("local_access")
            elif target.binding == "field":
                self._store_field(env, target, value)
            else:
                raise RuntimeFault("bad assignment target binding")
            return
        if isinstance(target, ast.Index):
            arr = self.eval(target.array, env)
            index = self.eval(target.index, env)
            self._bounds_check(arr, index)
            self._charge("array_store")
            if not arr.flags.writeable:
                raise RuntimeFault("attempt to mutate a value array")
            arr[index] = value
            return
        raise RuntimeFault("bad assignment target")

    def _store_field(self, env, target, value):
        self._charge("field_access")
        name = target.name
        if env.receiver is not None and name in env.receiver.fields:
            env.receiver.fields[name] = value
            return
        key = (target.owner, name)
        if key in self._static_fields:
            self._static_fields[key] = value
            return
        raise RuntimeFault("unknown field '{}'".format(name))

    def _narrow(self, value, t):
        """Compound assignment's implicit narrowing cast."""
        if isinstance(t, PrimType):
            if t.kind is PrimKind.INT:
                return rv.to_int32(int(value))
            if t.kind is PrimKind.LONG:
                return rv.to_int64(int(value))
            if t.kind is PrimKind.BYTE:
                return rv.to_int8(int(value))
            if t.kind is PrimKind.FLOAT:
                return float(value)
            if t.kind is PrimKind.DOUBLE:
                return float(value)
        return value

    # -- expressions ----------------------------------------------------------------------

    def eval(self, expr, env):
        kind = type(expr)
        if kind in (ast.IntLit, ast.LongLit, ast.FloatLit, ast.DoubleLit, ast.BoolLit, ast.StringLit):
            return expr.value
        if kind is ast.Name:
            return self._eval_name(expr, env)
        if kind is ast.Unary:
            return self._eval_unary(expr, env)
        if kind is ast.Binary:
            return self._eval_binary(expr, env)
        if kind is ast.Ternary:
            self._charge("branch")
            if self.eval(expr.cond, env):
                return self.eval(expr.then, env)
            return self.eval(expr.otherwise, env)
        if kind is ast.Cast:
            return self._eval_cast(expr, env)
        if kind is ast.Index:
            return self._eval_index(expr, env)
        if kind is ast.FieldAccess:
            return self._eval_field_access(expr, env)
        if kind is ast.Call:
            return self._eval_call(expr, env)
        if kind is ast.New:
            args = [self.eval(a, env) for a in expr.args]
            return self.construct(expr.class_name, args)
        if kind is ast.NewArray:
            dims = [self.eval(d, env) for d in expr.dims]
            arr = rv.new_array(expr.type, dims)
            self._charge("alloc")
            self._charge("alloc_byte", int(arr.nbytes))
            return arr
        if kind is ast.ArrayInit:
            vals = [self.eval(v, env) for v in expr.values]
            arr = np.array(vals, dtype=rv.dtype_for(expr.elem))
            self._charge("alloc")
            self._charge("alloc_byte", int(arr.nbytes))
            return arr
        if kind is ast.MapExpr:
            return self._eval_map(expr, env)
        if kind is ast.ReduceExpr:
            return self._eval_reduce(expr, env)
        if kind is ast.TaskExpr:
            if self.task_factory is None:
                raise RuntimeFault(
                    "task expressions require an engine (use repro.runtime.Engine)"
                )
            return self.task_factory(self, expr, env)
        if kind is ast.ConnectExpr:
            left = self.eval(expr.left, env)
            right = self.eval(expr.right, env)
            return left.connect(right)
        raise RuntimeFault("cannot evaluate {}".format(kind.__name__))

    def _eval_name(self, expr, env):
        if expr.binding in ("local", "param"):
            self._charge("local_access")
            return env.lookup(expr.name)
        if expr.binding == "field":
            self._charge("field_access")
            if env.receiver is not None and expr.name in env.receiver.fields:
                return env.receiver.fields[expr.name]
            return self._static_fields[(expr.owner, expr.name)]
        raise RuntimeFault("cannot evaluate bare name '{}'".format(expr.name))

    def _eval_unary(self, expr, env):
        operand = self.eval(expr.operand, env)
        result_type = expr.type
        if expr.op == "-":
            self._charge(self._op_cost_kind(result_type))
            result = -operand
            if isinstance(result_type, PrimType) and result_type.is_integral:
                result = rv.wrap_for(result_type.kind, result)
            return result
        if expr.op == "!":
            self._charge("int_op")
            return not operand
        if expr.op == "~":
            self._charge("int_op")
            return rv.wrap_for(result_type.kind, ~operand)
        raise RuntimeFault("unknown unary op")

    def _op_cost_kind(self, t):
        if isinstance(t, PrimType):
            if t.kind is PrimKind.DOUBLE:
                return "dp_op"
            if t.kind is PrimKind.FLOAT:
                return "fp_op"
            if t.kind is PrimKind.LONG:
                return "long_op"
        return "int_op"

    def _eval_binary(self, expr, env):
        op = expr.op
        if op == "&&":
            self._charge("branch")
            return bool(self.eval(expr.left, env)) and bool(self.eval(expr.right, env))
        if op == "||":
            self._charge("branch")
            return bool(self.eval(expr.left, env)) or bool(self.eval(expr.right, env))
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        if op in ("==", "!=", "<", ">", "<=", ">="):
            self._charge("cmp_op")
            return _COMPARE[op](left, right)
        result = self._binary_op(op, left, right, expr.type)
        return result

    def _binary_op(self, op, left, right, result_type):
        self._charge(self._op_cost_kind(result_type))
        integral = isinstance(result_type, PrimType) and result_type.is_integral
        if op == "+":
            result = left + right
        elif op == "-":
            result = left - right
        elif op == "*":
            result = left * right
        elif op == "/":
            if integral:
                result = rv.java_div(left, right)
            else:
                if right == 0:
                    result = math.inf if left > 0 else (-math.inf if left < 0 else math.nan)
                else:
                    result = left / right
        elif op == "%":
            if integral:
                result = rv.java_rem(left, right)
            else:
                result = math.fmod(left, right)
        elif op == "&":
            result = left & right
        elif op == "|":
            result = left | right
        elif op == "^":
            result = left ^ right
        elif op == "<<":
            result = left << (right & self._shift_mask(result_type))
        elif op == ">>":
            result = left >> (right & self._shift_mask(result_type))
        elif op == ">>>":
            bits = 64 if result_type.kind is PrimKind.LONG else 32
            mask = (1 << bits) - 1
            result = (left & mask) >> (right & (bits - 1))
        else:
            raise RuntimeFault("unknown binary op '{}'".format(op))
        if integral:
            result = rv.wrap_for(result_type.kind, result)
        elif isinstance(result_type, PrimType) and result_type.is_floating:
            result = float(result)
        return result

    @staticmethod
    def _shift_mask(result_type):
        return 63 if result_type.kind is PrimKind.LONG else 31

    def _eval_cast(self, expr, env):
        value = self.eval(expr.expr, env)
        target = expr.target
        if expr.freezes:
            self._charge("alloc")
            self._charge("alloc_byte", int(value.nbytes))
            self._charge("array_load", int(value.size))
            return rv.freeze_array(value)
        if expr.thaws:
            self._charge("alloc")
            self._charge("alloc_byte", int(value.nbytes))
            return rv.thaw_array(value)
        if isinstance(target, PrimType):
            self._charge("int_op")
            if target.kind is PrimKind.INT:
                return rv.to_int32(int(value))
            if target.kind is PrimKind.LONG:
                return rv.to_int64(int(value))
            if target.kind is PrimKind.BYTE:
                return rv.to_int8(int(value))
            if target.kind is PrimKind.FLOAT:
                return rv.float32_round(value)
            if target.kind is PrimKind.DOUBLE:
                return float(value)
            if target.kind is PrimKind.BOOLEAN:
                return bool(value)
        return value

    def _eval_index(self, expr, env):
        arr = self.eval(expr.array, env)
        index = self.eval(expr.index, env)
        self._bounds_check(arr, index)
        self._charge("array_load")
        if arr.ndim == 1:
            return arr.item(index)
        return arr[index]

    def _bounds_check(self, arr, index):
        self._charge("cmp_op")
        if not isinstance(arr, np.ndarray):
            raise RuntimeFault("indexing a non-array value")
        if index < 0 or index >= arr.shape[0]:
            raise RuntimeFault(
                "array index {} out of bounds for length {}".format(
                    index, arr.shape[0]
                )
            )

    def _eval_field_access(self, expr, env):
        receiver = expr.receiver
        if isinstance(receiver, ast.Name) and receiver.binding == "class":
            self._charge("field_access")
            return self._static_fields[(receiver.name, expr.name)]
        value = self.eval(receiver, env)
        if expr.name == "length":
            self._charge("field_access")
            return int(value.shape[0])
        raise RuntimeFault("unknown field access '{}'".format(expr.name))

    def _eval_call(self, expr, env):
        builtin = expr.builtin
        if builtin is not None:
            if builtin.startswith("math."):
                return self._eval_math(expr, env, builtin[5:])
            if builtin == "lime.iota":
                n = self.eval(expr.args[0], env)
                self._charge("alloc")
                self._charge("alloc_byte", 4 * n)
                return rv.iota(n)
            if builtin == "lime.print":
                self.printer(self.eval(expr.args[0], env))
                return None
            if builtin == "finish":
                graph = self.eval(expr.receiver, env)
                graph.finish()
                return None
            raise RuntimeFault("unknown builtin '{}'".format(builtin))
        method = expr.resolved
        args = [self.eval(a, env) for a in expr.args]
        if method.is_static:
            return self._invoke(method, None, args)
        receiver = self.eval(expr.receiver, env)
        return self._invoke(method, receiver, args)

    def _eval_math(self, expr, env, name):
        args = [self.eval(a, env) for a in expr.args]
        if name in _NON_TRANSCENDENTAL:
            self._charge("fp_op")
        elif name in ("sqrt", "rsqrt"):
            # HotSpot compiles Math.sqrt to the hardware instruction;
            # the software transcendentals are the expensive ones.
            self._charge("sqrt_op")
        else:
            self._charge("transcendental")
        func = _MATH_FUNCS[name]
        result = func(*args)
        if expr.type == INT:
            return rv.to_int32(int(result))
        if expr.type == LONG:
            return rv.to_int64(int(result))
        if expr.type in (FLOAT, DOUBLE):
            return float(result)
        return result

    # -- map / reduce ----------------------------------------------------------------------

    def _eval_map(self, expr, env):
        source = self.eval(expr.source, env)
        bound = [self.eval(a, env) for a in expr.bound_args]
        method = expr.func.resolved
        results = []
        read = source.item if source.ndim == 1 else source.__getitem__
        for i in range(source.shape[0]):
            self._charge("array_load")
            results.append(self._invoke(method, None, [read(i)] + bound))
        result_type = expr.type
        base = result_type.base_elem
        out = np.array(results, dtype=rv.dtype_for(base))
        out.setflags(write=False)
        self._charge("alloc")
        self._charge("alloc_byte", int(out.nbytes))
        self._charge("array_store", int(out.size))
        return out

    def _eval_reduce(self, expr, env):
        source = self.eval(expr.source, env)
        self._charge("array_load", int(source.shape[0]))
        if expr.op == "+":
            self._charge(self._op_cost_kind(expr.type), int(source.shape[0]))
            return self._narrow(source.sum().item(), expr.type)
        if expr.op == "*":
            self._charge(self._op_cost_kind(expr.type), int(source.shape[0]))
            return self._narrow(source.prod().item(), expr.type)
        func = expr.func
        if func.class_name == "Math":
            self._charge("cmp_op", int(source.shape[0]))
            if func.method_name == "min":
                return source.min().item()
            return source.max().item()
        method = func.resolved
        read = source.item if source.ndim == 1 else source.__getitem__
        accumulator = read(0)
        for i in range(1, source.shape[0]):
            accumulator = self._invoke(method, None, [accumulator, read(i)])
        return accumulator


class _Env:
    """A call frame: receiver object plus a stack of lexical scopes."""

    __slots__ = ("interp", "receiver", "scopes")

    def __init__(self, interp, receiver, frame):
        self.interp = interp
        self.receiver = receiver
        self.scopes = [frame]

    def push(self):
        self.scopes.append({})

    def pop(self):
        self.scopes.pop()

    def define(self, name, value):
        self.scopes[-1][name] = value

    def lookup(self, name):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise RuntimeFault("unbound variable '{}'".format(name))

    def assign(self, name, value):
        for scope in reversed(self.scopes):
            if name in scope:
                scope[name] = value
                return
        raise RuntimeFault("unbound variable '{}'".format(name))


