"""Translate the OpenCL C AST into kernel IR.

A small bidirectional-free type inference (declarations seed a symbol
table; expressions propagate upward with C-style promotion) is enough
for the kernel subset. Unsigned and 16-bit types are widened to their
signed 32/64-bit counterparts — the simulator computes in Python ints
with explicit wrapping, so this only affects extremely unusual kernels
that rely on unsigned wraparound semantics, which the baseline suite
avoids.
"""

from __future__ import annotations

import re

from repro.backend import kernel_ir as K
from repro.errors import CompileError
from repro.opencl.clc import cast as C

_SCALARS = {
    "bool": K.K_BOOL,
    "char": K.K_CHAR,
    "uchar": K.K_CHAR,
    "short": K.K_INT,
    "ushort": K.K_INT,
    "int": K.K_INT,
    "uint": K.K_INT,
    "long": K.K_LONG,
    "ulong": K.K_LONG,
    "float": K.K_FLOAT,
    "double": K.K_DOUBLE,
}

_VECTOR_RE = re.compile(
    r"^(char|uchar|short|ushort|int|uint|long|ulong|float|double)(2|4|8|16)$"
)

_SPACES = {
    "global": K.Space.GLOBAL,
    "local": K.Space.LOCAL,
    "constant": K.Space.CONSTANT,
    "private": K.Space.PRIVATE,
    "image": K.Space.IMAGE,
}

_LANES = {"x": 0, "y": 1, "z": 2, "w": 3}

_MATH_FUNCS = {
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
    "floor",
    "ceil",
    "fabs",
    "pow",
    "native_powr",
    "atan2",
    "hypot",
}

_MINMAX = {"min", "max", "fmin", "fmax", "abs"}

_WORKITEM = {
    "get_global_id",
    "get_local_id",
    "get_group_id",
    "get_local_size",
    "get_global_size",
    "get_num_groups",
}


def parse_type(name):
    if name in _SCALARS:
        return _SCALARS[name]
    match = _VECTOR_RE.match(name)
    if match:
        return K.KVector(_SCALARS[match.group(1)], int(match.group(2)))
    raise CompileError("unknown OpenCL type '{}'".format(name))


def _promote(a, b):
    """C-style usual arithmetic conversion over our kernel types."""
    if isinstance(a, K.KVector):
        return a
    if isinstance(b, K.KVector):
        return b
    order = {"bool": 0, "char": 1, "int": 2, "long": 3, "float": 4, "double": 5}
    winner = a if order[a.kind] >= order[b.kind] else b
    if winner.kind in ("bool", "char"):
        return K.K_INT
    return winner


class _ArrayInfo:
    __slots__ = ("space", "elem", "is_image")

    def __init__(self, space, elem, is_image=False):
        self.space = space
        self.elem = elem
        self.is_image = is_image


class Translator:
    def __init__(self, ckernel):
        self.ckernel = ckernel
        # Live scalars: source name -> (IR name, ktype). A block or a
        # for loop drops the names it declared when it ends.
        self.scalars = {}
        # Every declared name, plus the fresh IR names handed out to
        # declarations that shadow a live variable.
        self.taken = {p.name for p in ckernel.params}
        self.taken |= _declared_names(ckernel.body)
        self.arrays = {}  # name -> _ArrayInfo
        self.params = []
        self.local_arrays = []

    def run(self):
        for param in self.ckernel.params:
            self._translate_param(param)
        body = self._block(self.ckernel.body)
        return K.Kernel(
            name=self.ckernel.name,
            params=self.params,
            arrays=self.local_arrays,
            body=body,
            meta={"kind": "handwritten"},
        )

    def _translate_param(self, param):
        if param.space == "image":
            elem = K.K_FLOAT
            self.params.append(
                K.KParam(
                    param.name, elem, K.Space.GLOBAL, is_pointer=True, read_only=True
                )
            )
            self.arrays[param.name] = _ArrayInfo(
                K.Space.IMAGE, elem, is_image=True
            )
            return
        ktype = parse_type(param.type_name)
        if param.is_pointer:
            space = _SPACES[param.space]
            self.params.append(
                K.KParam(
                    param.name,
                    ktype,
                    space,
                    is_pointer=True,
                    read_only=param.is_const,
                )
            )
            self.arrays[param.name] = _ArrayInfo(space, ktype)
        else:
            self.params.append(K.KParam(param.name, ktype))
            self.scalars[param.name] = (param.name, ktype)

    def _declare(self, name, ktype):
        """Bring scalar ``name`` into scope and return its IR name: its
        own, unless it shadows a live variable — then a fresh one, so
        the inner variable never overwrites the outer."""
        ir_name = name
        if name in self.scalars:
            suffix = 1
            while "{}_{}".format(name, suffix) in self.taken:
                suffix += 1
            ir_name = "{}_{}".format(name, suffix)
            self.taken.add(ir_name)
        self.scalars[name] = (ir_name, ktype)
        return ir_name

    def _scoped(self, translate, stmt):
        """``translate(stmt)``; the names it declares end with it."""
        outer = dict(self.scalars)
        result = translate(stmt)
        self.scalars = outer
        return result

    # -- statements -------------------------------------------------------------

    def _block(self, block):
        stmts = []
        for stmt in block.stmts:
            result = self._stmt(stmt)
            if result is not None:
                stmts.extend(result)
        return stmts

    def _stmt(self, stmt):
        if isinstance(stmt, C.CBlock):
            return self._scoped(self._block, stmt)
        if isinstance(stmt, C.CDecl):
            return self._decl(stmt)
        if isinstance(stmt, C.CExprStmt):
            if isinstance(stmt.expr, C.CCall) and stmt.expr.name.startswith(
                "vstore"
            ):
                return [_handle_vstore_stmt(self, stmt.expr)]
            # Other pure expression statements have no device effect.
            return []
        if isinstance(stmt, C.CAssign):
            return self._assign(stmt)
        if isinstance(stmt, C.CIf):
            cond = self._expr(stmt.cond)[0]
            then = self._stmt(stmt.then) or []
            otherwise = self._stmt(stmt.otherwise) or [] if stmt.otherwise else []
            return [K.KIf(cond, then, otherwise)]
        if isinstance(stmt, C.CFor):
            return self._scoped(self._for, stmt)
        if isinstance(stmt, C.CWhile):
            cond = self._expr(stmt.cond)[0]
            return [K.KWhile(cond, self._stmt(stmt.body) or [])]
        if isinstance(stmt, C.CReturn):
            return [K.KReturn()]
        if isinstance(stmt, C.CBreak):
            return [K.KBreak()]
        if isinstance(stmt, C.CContinue):
            return [K.KContinue()]
        if isinstance(stmt, C.CBarrier):
            return [K.KBarrier()]
        raise CompileError(
            "cannot translate {}".format(type(stmt).__name__)
        )

    def _decl(self, stmt):
        if stmt.type_name == "sampler_t":
            return []
        ktype = parse_type(stmt.type_name)
        if stmt.array_size is not None:
            space = K.Space.LOCAL if stmt.space == "local" else K.Space.PRIVATE
            self.local_arrays.append(
                K.KLocalArray(stmt.name, ktype, stmt.array_size, space)
            )
            self.arrays[stmt.name] = _ArrayInfo(space, ktype)
            return []
        name = self._declare(stmt.name, ktype)
        init = None
        if stmt.init is not None:
            init, init_t = self._expr(stmt.init)
            if isinstance(ktype, K.KScalar) and isinstance(init_t, K.KScalar):
                if init_t != ktype:
                    init = K.KCast(init, ktype)
        return [K.KDecl(name, ktype, init)]

    def _assign(self, stmt):
        target = stmt.target
        if isinstance(target, C.CIdent):
            if target.name not in self.scalars:
                raise CompileError(
                    "assignment to undeclared '{}'".format(target.name)
                )
            name, ktype = self.scalars[target.name]
            value, _ = self._expr(stmt.value)
            if stmt.op is not None:
                value = K.KBin(stmt.op, K.KVar(name, ktype), value, ktype)
            return [K.KAssign(name, value)]
        if isinstance(target, C.CIndex):
            base, index, info = self._index_parts(target)
            value, _ = self._expr(stmt.value)
            if stmt.op is not None:
                load = K.KLoad(base, index, info.space, info.elem)
                value = K.KBin(stmt.op, load, value, info.elem)
            return [K.KStore(base, index, value, info.space, info.elem)]
        if isinstance(target, C.CCall) and target.name.startswith("vstore"):
            raise CompileError("vstore is an expression-statement call")
        raise CompileError("unsupported assignment target")

    def _for(self, stmt):
        out = []
        # Canonical form: for (int i = lo; i < hi; i += step).
        init = stmt.init
        if (
            isinstance(init, C.CDecl)
            and init.array_size is None
            and isinstance(stmt.cond, C.CBin)
            and stmt.cond.op == "<"
            and isinstance(stmt.cond.left, C.CIdent)
            and stmt.cond.left.name == init.name
            and isinstance(stmt.update, C.CAssign)
            and isinstance(stmt.update.target, C.CIdent)
            and stmt.update.target.name == init.name
            and stmt.update.op == "+"
        ):
            var = self._declare(init.name, parse_type(init.type_name))
            lo, _ = self._expr(init.init)
            hi, _ = self._expr(stmt.cond.right)
            step, _ = self._expr(stmt.update.value)
            body = self._stmt(stmt.body) or []
            out.append(K.KFor(var, lo, hi, step, body))
            return out
        # General form: init; while (cond) { body; update; }.
        if stmt.init is not None:
            out.extend(self._stmt(stmt.init) or [])
        cond = (
            self._expr(stmt.cond)[0]
            if stmt.cond is not None
            else K.KConst(True, K.K_BOOL)
        )
        body = self._stmt(stmt.body) or []
        if stmt.update is not None:
            if _contains_continue(body):
                raise CompileError(
                    "continue inside a non-canonical for loop is not "
                    "supported (the update would be skipped)"
                )
            body.extend(self._stmt(stmt.update) or [])
        out.append(K.KWhile(cond, body))
        return out

    # -- expressions -----------------------------------------------------------------

    def _expr(self, expr):
        """Returns (kexpr, ktype)."""
        if isinstance(expr, C.CNum):
            if expr.suffix == "f":
                return K.KConst(float(expr.value), K.K_FLOAT), K.K_FLOAT
            if expr.suffix == "L":
                return K.KConst(int(expr.value), K.K_LONG), K.K_LONG
            if isinstance(expr.value, float):
                return K.KConst(expr.value, K.K_DOUBLE), K.K_DOUBLE
            return K.KConst(expr.value, K.K_INT), K.K_INT
        if isinstance(expr, C.CIdent):
            if expr.name not in self.scalars:
                raise CompileError("unknown identifier '{}'".format(expr.name))
            name, ktype = self.scalars[expr.name]
            return K.KVar(name, ktype), ktype
        if isinstance(expr, C.CUn):
            operand, ktype = self._expr(expr.operand)
            if expr.op == "!":
                return K.KUn("!", operand, K.K_BOOL), K.K_BOOL
            return K.KUn(expr.op, operand, ktype), ktype
        if isinstance(expr, C.CBin):
            return self._binary(expr)
        if isinstance(expr, C.CTernary):
            cond, _ = self._expr(expr.cond)
            then, t1 = self._expr(expr.then)
            otherwise, t2 = self._expr(expr.otherwise)
            ktype = _promote(t1, t2)
            return K.KSelect(cond, then, otherwise, ktype), ktype
        if isinstance(expr, C.CCall):
            return self._call(expr)
        if isinstance(expr, C.CIndex):
            base, index, info = self._index_parts(expr)
            if info.is_image:
                raise CompileError("images are read via read_imagef")
            return K.KLoad(base, index, info.space, info.elem), info.elem
        if isinstance(expr, C.CMember):
            return self._member(expr)
        if isinstance(expr, C.CCastExpr):
            ktype = parse_type(expr.type_name)
            inner, _ = self._expr(expr.expr)
            return K.KCast(inner, ktype), ktype
        if isinstance(expr, C.CVecLit):
            ktype = parse_type(expr.type_name)
            elems = [self._expr(a)[0] for a in expr.args]
            if len(elems) == 1:
                elems = elems * ktype.width  # splat
            return K.KVecBuild(elems, ktype), ktype
        raise CompileError("cannot translate {}".format(type(expr).__name__))

    def _binary(self, expr):
        left, lt = self._expr(expr.left)
        right, rt = self._expr(expr.right)
        if expr.op in ("<", ">", "<=", ">=", "==", "!="):
            return K.KBin(expr.op, left, right, K.K_BOOL), K.K_BOOL
        if expr.op in ("&&", "||"):
            return K.KBin(expr.op, left, right, K.K_BOOL), K.K_BOOL
        ktype = _promote(lt, rt)
        return K.KBin(expr.op, left, right, ktype), ktype

    def _index_parts(self, expr):
        if not isinstance(expr.base, C.CIdent):
            raise CompileError("only direct array indexing is supported")
        name = expr.base.name
        info = self.arrays.get(name)
        if info is None:
            raise CompileError("unknown array '{}'".format(name))
        index, _ = self._expr(expr.index)
        return name, index, info

    def _member(self, expr):
        base, ktype = self._expr(expr.base)
        if not isinstance(ktype, K.KVector):
            raise CompileError("member access on a non-vector value")
        name = expr.name
        if name in _LANES:
            lane = _LANES[name]
        elif re.fullmatch(r"s[0-9a-fA-F]", name):
            lane = int(name[1], 16)
        else:
            raise CompileError("unsupported vector member '.{}'".format(name))
        if lane >= ktype.width:
            raise CompileError(
                "lane {} out of range for {}".format(lane, ktype)
            )
        return K.KVecExtract(base, lane, ktype.base), ktype.base

    def _call(self, expr):
        name = expr.name
        if name in _WORKITEM:
            if expr.args and not (
                isinstance(expr.args[0], C.CNum) and expr.args[0].value == 0
            ):
                raise CompileError(
                    "only dimension 0 NDRanges are supported"
                )
            return K.KCall(name, [], K.K_INT), K.K_INT
        if name.startswith("vload"):
            width = int(name[5:])
            index, _ = self._expr(expr.args[0])
            pointer = expr.args[1]
            if not isinstance(pointer, C.CIdent):
                raise CompileError("vload requires a direct pointer")
            info = self.arrays.get(pointer.name)
            if info is None:
                raise CompileError("unknown array '{}'".format(pointer.name))
            vec = K.KVector(info.elem, width)
            return K.KLoad(pointer.name, index, info.space, vec), vec
        if name.startswith("vstore"):
            raise CompileError("vstore must be used as a statement")
        if name == "read_imagef":
            image = expr.args[0]
            if not isinstance(image, C.CIdent):
                raise CompileError("read_imagef requires a direct image")
            coord_arg = expr.args[-1]
            coord = self._image_coord(coord_arg)
            vec = K.KVector(K.K_FLOAT, 4)
            return K.KImageLoad(image.name, coord, vec), vec
        if name == "mad":
            a, ta = self._expr(expr.args[0])
            b, tb = self._expr(expr.args[1])
            c, tc = self._expr(expr.args[2])
            ktype = _promote(_promote(ta, tb), tc)
            return (
                K.KBin("+", K.KBin("*", a, b, ktype), c, ktype),
                ktype,
            )
        if name in _MATH_FUNCS or name in _MINMAX:
            args = []
            arg_t = None
            for arg in expr.args:
                kexpr, ktype = self._expr(arg)
                args.append(kexpr)
                arg_t = ktype if arg_t is None else _promote(arg_t, ktype)
            if arg_t is None:
                arg_t = K.K_FLOAT
            if name in _MATH_FUNCS and not arg_t.is_float:
                arg_t = K.K_FLOAT  # transcendentals promote ints to float
            return K.KCall(name, args, arg_t), arg_t
        raise CompileError("unknown device function '{}'".format(name))

    def _image_coord(self, coord_arg):
        """Extract the x coordinate from ``(int2)(x, 0)``."""
        if isinstance(coord_arg, C.CVecLit):
            return self._expr(coord_arg.args[0])[0]
        raise CompileError(
            "image coordinates must be literal (int2)(x, 0) expressions"
        )


def _declared_names(stmt):
    """Every name a declaration anywhere in C statement ``stmt`` binds."""
    if isinstance(stmt, C.CDecl):
        return {stmt.name}
    if isinstance(stmt, C.CBlock):
        children = stmt.stmts
    else:
        children = [
            getattr(stmt, part, None)
            for part in ("then", "otherwise", "init", "update", "body")
        ]
    return set().union(
        *(_declared_names(child) for child in children if child is not None)
    )


def _contains_continue(stmts):
    for stmt in stmts:
        if isinstance(stmt, K.KContinue):
            return True
        if isinstance(stmt, K.KIf) and (
            _contains_continue(stmt.then) or _contains_continue(stmt.otherwise)
        ):
            return True
        # Nested loops own their continues.
    return False


def translate_kernel(ckernel):
    """Translate one parsed kernel into kernel IR."""
    return Translator(ckernel).run()


def _handle_vstore_stmt(translator, call):
    width = int(call.name[6:])
    value, _ = translator._expr(call.args[0])
    index, _ = translator._expr(call.args[1])
    pointer = call.args[2]
    if not isinstance(pointer, C.CIdent):
        raise CompileError("vstore requires a direct pointer")
    info = translator.arrays.get(pointer.name)
    if info is None:
        raise CompileError("unknown array '{}'".format(pointer.name))
    vec = K.KVector(info.elem, width)
    return K.KStore(pointer.name, index, value, info.space, vec)
