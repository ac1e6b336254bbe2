"""Kernel IR: the device-side program representation.

One IR, two producers, one consumer:

- the Lime compilation pipeline (:mod:`repro.compiler`) lowers filters to
  this IR;
- the OpenCL-C frontend (:mod:`repro.opencl.clc`) parses hand-written
  kernels to the same IR;
- the simulated device (:mod:`repro.opencl.executor`) executes only this
  IR, and :mod:`repro.backend.opencl_gen` pretty-prints it back to
  OpenCL C source.

The IR is structured (statements and expressions, not a CFG): OpenCL C
kernels are structured programs and keeping the loop structure explicit
is what makes the memory-optimization passes and the work-group
simulation straightforward.

Arrays are one-dimensional at this level: multidimensional Lime arrays
are flattened row-major during lowering, with index arithmetic made
explicit — exactly what the generated OpenCL does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


class Space(enum.Enum):
    """OpenCL address spaces (Section 2 of the paper)."""

    GLOBAL = "global"
    LOCAL = "local"
    PRIVATE = "private"
    CONSTANT = "constant"
    IMAGE = "image"


# -- types ---------------------------------------------------------------------


@dataclass(frozen=True)
class KScalar:
    """A device scalar type. ``kind`` is one of bool/char/int/long/
    float/double (char doubles as Lime's byte)."""

    kind: str

    def __str__(self):
        return self.kind

    @property
    def is_float(self):
        return self.kind in ("float", "double")

    @property
    def size(self):
        return _SCALAR_SIZES[self.kind]


_SCALAR_SIZES = {
    "bool": 1,
    "char": 1,
    "int": 4,
    "long": 8,
    "float": 4,
    "double": 8,
}

K_BOOL = KScalar("bool")
K_CHAR = KScalar("char")
K_INT = KScalar("int")
K_LONG = KScalar("long")
K_FLOAT = KScalar("float")
K_DOUBLE = KScalar("double")


@dataclass(frozen=True)
class KVector:
    """An OpenCL vector type like ``float4``."""

    base: KScalar
    width: int

    def __str__(self):
        return "{}{}".format(self.base.kind, self.width)

    @property
    def is_float(self):
        return self.base.is_float

    @property
    def size(self):
        return self.base.size * self.width


def is_vector(ktype):
    return isinstance(ktype, KVector)


# -- kernel structure -------------------------------------------------------------


@dataclass
class KParam:
    """A kernel parameter.

    Buffer parameters (``is_pointer``) carry an address space and an
    element type; scalar parameters are passed by value. ``read_only``
    buffers are eligible for constant/image placement.
    """

    name: str
    ktype: object  # KScalar or KVector (element type for pointers)
    space: Space = Space.PRIVATE
    is_pointer: bool = False
    read_only: bool = False


@dataclass
class KLocalArray:
    """A ``__local`` or ``__private`` array declared inside the kernel.

    ``size`` is in elements of ``ktype``; for LOCAL arrays sized by the
    work-group, ``size`` may be the symbolic string ``"local_size"``
    times a factor via ``per_item``. ``pad`` adds that many elements of
    padding per ``row`` elements (bank-conflict removal).
    """

    name: str
    ktype: object
    size: int
    space: Space = Space.PRIVATE
    pad: int = 0
    row: int = 0  # row length the padding applies to (0 = no rows)


# -- expressions ---------------------------------------------------------------------


class KExpr:
    pass


@dataclass
class KConst(KExpr):
    value: object
    ktype: object


@dataclass
class KVar(KExpr):
    name: str
    ktype: object


@dataclass
class KUn(KExpr):
    op: str
    operand: KExpr
    ktype: object


@dataclass
class KBin(KExpr):
    op: str
    left: KExpr
    right: KExpr
    ktype: object


@dataclass
class KSelect(KExpr):
    cond: KExpr
    then: KExpr
    otherwise: KExpr
    ktype: object


@dataclass
class KCast(KExpr):
    expr: KExpr
    ktype: object


@dataclass
class KCall(KExpr):
    """A builtin call: math functions (``sqrt``, ``native_sin``, ...) or
    work-item functions (``get_global_id``...)."""

    name: str
    args: List[KExpr]
    ktype: object


@dataclass
class KLoad(KExpr):
    """Load from a named array.

    ``index`` is in elements of ``ktype``: a scalar load reads
    ``array[index]``; a vector load of width W reads elements
    ``[index*W, index*W + W)`` (OpenCL ``vloadW(index, array)``).
    ``site`` is a unique static identifier used by the timing model to
    aggregate per-access-site statistics (coalescing, conflicts).
    """

    array: str
    index: KExpr
    space: Space
    ktype: object
    site: int = field(default=-1, repr=False)


@dataclass
class KImageLoad(KExpr):
    """``read_imagef(img, sampler, (int2)(x, 0))`` — always yields a
    4-wide vector (2-wide arrays use a packed representation)."""

    image: str
    coord: KExpr
    ktype: object  # KVector
    site: int = field(default=-1, repr=False)


@dataclass
class KVecExtract(KExpr):
    vec: KExpr
    lane: int
    ktype: object


@dataclass
class KVecBuild(KExpr):
    elems: List[KExpr]
    ktype: object  # KVector


# -- statements ----------------------------------------------------------------------


class KStmt:
    pass


@dataclass
class KDecl(KStmt):
    name: str
    ktype: object
    init: Optional[KExpr] = None


@dataclass
class KAssign(KStmt):
    """``name = value`` for scalars."""

    name: str
    value: KExpr


@dataclass
class KStore(KStmt):
    """Store into a named array; same indexing convention as
    :class:`KLoad` (vector stores write a whole vector)."""

    array: str
    index: KExpr
    value: KExpr
    space: Space
    ktype: object
    site: int = field(default=-1, repr=False)


@dataclass
class KIf(KStmt):
    cond: KExpr
    then: List[KStmt]
    otherwise: List[KStmt] = field(default_factory=list)


@dataclass
class KFor(KStmt):
    """Canonical loop: ``for (var = lo; var < hi; var += step)``."""

    var: str
    lo: KExpr
    hi: KExpr
    step: KExpr
    body: List[KStmt]


@dataclass
class KWhile(KStmt):
    cond: KExpr
    body: List[KStmt]


@dataclass
class KBarrier(KStmt):
    """``barrier(CLK_LOCAL_MEM_FENCE)``."""


@dataclass
class KReturn(KStmt):
    """Early exit from the kernel (void)."""


@dataclass
class KBreak(KStmt):
    pass


@dataclass
class KContinue(KStmt):
    pass


@dataclass
class KComment(KStmt):
    text: str


# -- the kernel -----------------------------------------------------------------------


@dataclass
class Kernel:
    """A complete device kernel.

    ``arrays`` lists in-kernel array declarations (private arrays, local
    scratch). ``meta`` is a free-form dict the glue layer uses (input /
    output parameter names, element shapes, reduction info).

    ``repr(kernel)`` prints the IR structurally, and the kernel cache
    hashes it as the kernel's fingerprint. So every IR node is a
    dataclass, and the two fields codegen does not read are left out
    of it: ``meta``, and the access ``site`` ids that
    :func:`assign_sites` derives from the structure.
    """

    name: str
    params: List[KParam]
    arrays: List[KLocalArray]
    body: List[KStmt]
    meta: dict = field(default_factory=dict, repr=False)

    def param(self, name):
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)

    def buffer_params(self):
        return [p for p in self.params if p.is_pointer]

    def scalar_params(self):
        return [p for p in self.params if not p.is_pointer]


def walk_stmts(stmts):
    """Yield every statement in a statement list, recursively."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, KIf):
            yield from walk_stmts(stmt.then)
            yield from walk_stmts(stmt.otherwise)
        elif isinstance(stmt, (KFor, KWhile)):
            yield from walk_stmts(stmt.body)


def walk_exprs(node):
    """Yield every sub-expression of an expression or statement."""
    if isinstance(node, KExpr):
        yield node
        children = []
        if isinstance(node, KUn):
            children = [node.operand]
        elif isinstance(node, KBin):
            children = [node.left, node.right]
        elif isinstance(node, KSelect):
            children = [node.cond, node.then, node.otherwise]
        elif isinstance(node, KCast):
            children = [node.expr]
        elif isinstance(node, KCall):
            children = node.args
        elif isinstance(node, KLoad):
            children = [node.index]
        elif isinstance(node, KImageLoad):
            children = [node.coord]
        elif isinstance(node, KVecExtract):
            children = [node.vec]
        elif isinstance(node, KVecBuild):
            children = node.elems
        for child in children:
            yield from walk_exprs(child)
    elif isinstance(node, KStmt):
        for expr in stmt_exprs(node):
            yield from walk_exprs(expr)


def stmt_exprs(stmt):
    """Yield the expressions directly attached to ``stmt`` (not the ones
    inside nested statements — combine with :func:`walk_stmts` for a full
    traversal without double visits)."""
    if isinstance(stmt, KDecl):
        if stmt.init is not None:
            yield stmt.init
    elif isinstance(stmt, KAssign):
        yield stmt.value
    elif isinstance(stmt, KStore):
        yield stmt.index
        yield stmt.value
    elif isinstance(stmt, KIf):
        yield stmt.cond
    elif isinstance(stmt, KFor):
        yield stmt.lo
        yield stmt.hi
        yield stmt.step
    elif isinstance(stmt, KWhile):
        yield stmt.cond


def walk_stmt_exprs(stmt):
    """Yield every sub-expression attached directly to ``stmt``."""
    for expr in stmt_exprs(stmt):
        yield from walk_exprs(expr)


def assign_sites(kernel):
    """Assign unique site ids to every memory access in the kernel.
    Returns the list of access nodes, indexed by site id."""
    sites = []

    def visit(node):
        if isinstance(node, (KLoad, KImageLoad)):
            node.site = len(sites)
            sites.append(node)

    for stmt in walk_stmts(kernel.body):
        if isinstance(stmt, KStore):
            for expr in stmt_exprs(stmt):
                for sub in walk_exprs(expr):
                    visit(sub)
            stmt.site = len(sites)
            sites.append(stmt)
        else:
            for expr in stmt_exprs(stmt):
                for sub in walk_exprs(expr):
                    visit(sub)
    return sites
