"""The statement record of a sweep, and the generated source around it.

Translates classified symbolic terms into statements (:class:`Stmt`, one
operation each, printed as C by :mod:`repro.codegen.ctile`), the NumPy
definitions evaluated before a sweep (:class:`Hoisted`) and the Python
source of the generated solvers' functions, together with static work
estimates (FLOPs and bytes per value) that feed the simulated GPU's
roofline timing.

Naming conventions in generated code (all bound on the ``state`` object or
as locals prepared by the generated function):

================  ==========================================================
``u``             unknown, ``(ncomp, ncells)``
``u1``, ``u2``    a face's two sides (its first cell, its second cell or
                  ghost value): C locals of a face loop, NumPy arrays of
                  the sweep's rows for what is evaluated before it
``us``            the unknown's row in a statement (:class:`Leaf` ``'u'``)
``f<i>``/``c<i>`` registers of a statement: C locals per face / per cell
                  (``d<i>``: of a surface statement folded through the
                  divergence); ``s<i>`` those of a definition evaluated once
                  per sweep, arrays written through ``out=``
                  (:class:`_Registers`)
``sel``           component-row selector of a definition (``trep_<ix>``,
                  or the sweep's rows)
``faces``         the geometry a face loop reads
                  (:meth:`repro.fvm.geometry.FVGeometry.face_loop`)
``coef_<c>``      scalar coefficient (float) or per-component vector
``cmap_<v>``      component map of a known variable onto the unknown's
                  component axis, ``(ncomp,)`` int
``var_<v>``       known variable values ``(ncomp_v, ncells)``: a device
                  kernel's argument, bound once from ``state.fields`` at
                  the top of a host function (:func:`bind_known`)
``fcoef_<c>``     function coefficient evaluated on cell centres /
                  ``fcoef_<c>_face`` on face centres
================  ==========================================================
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.symbolic.expr import (
    Add,
    Call,
    Cmp,
    Conditional,
    Expr,
    FaceDistance,
    FaceNormal,
    Indexed,
    Mul,
    Num,
    Pow,
    Reconstruction,
    SideValue,
    Sym,
    preorder,
)
from repro.symbolic.functions import FUNCTION_CODES
from repro.util.errors import CodegenError

if TYPE_CHECKING:
    from repro.dsl.problem import Problem
    from repro.ir.lowering import ClassifiedForm

_AXIS_NAMES = {1: "normal_x", 2: "normal_y", 3: "normal_z"}

COMPARISONS = (">", "<", ">=", "<=", "==", "!=")


def _join(*kinds: str) -> str:
    """Shape of an elementwise result (see :meth:`ExprEmitter._kind`)."""
    shaped = set(kinds) - {"0"}
    return shaped.pop() if len(shaped) == 1 else "t" if shaped else "0"


class Hoisted(NamedTuple):
    """A sub-expression evaluated ahead of the sweep, over the indices it
    depends on: with ``sel = trep_<rows>`` (one component per row) ``lines``
    run, then ``name = code``; a sweep reads it as a :class:`Table`.  One
    with no ``rows`` reads the unknown, or has no C form: it is evaluated
    over the sweep's rows, one row of ``width`` (``cells``/``faces``) each."""

    name: str
    code: str
    rows: str
    lines: tuple[str, ...] = ()
    width: str = ""


class _Ops(dict):
    def __missing__(self, op: str) -> tuple:
        return (f"{op}({{}})", ", ", None, None)


#: Every operation of the statement record (:class:`Stmt`; printed as NumPy by
#: ``str``, as C by :func:`repro.codegen.ctile.lower`): its NumPy spelling
#: (``{}``: the operands, joined by the separator), as a statement (``{t}``:
#: the register; ``None``: ``np.copyto({t}, ...)``) and its exact C spelling per
#: element (``None``: none, the sub-tree is evaluated in NumPy before the sweep,
#: :meth:`ExprEmitter._numpy_only`; exact as compiled with
#: :data:`repro.codegen.ctile.FLAGS`, a comparison only as a select's
#: condition or stored as a float).  ``=`` binds a name; ``take`` (a known
#: variable's rows by its component map) and ``fold`` (a folded operator
#: applied, C only) read names, C the row the printer made.  A function
#: registered with another code is a call with no C form.
OPS = _Ops({
    **{op: ("({})", f" {op} ", f"np.{ufunc}({{}}, {{}}, out={{t}})", f"({{}} {op} {{}})")
       for op, ufunc in (("+", "add"), ("-", "subtract"), ("*", "multiply"), ("/", "divide"))},
    **{op: ("({})", f" {op} ", None, f"({{}} {op} {{}})") for op in COMPARISONS},
    "**": ("({})", " ** ", None, None),
    "np.where": ("np.where({})", ", ", None, "({} ? {} : {})"),
    "np.sqrt": ("np.sqrt({})", ", ", None, "__builtin_sqrt({})"),
    "np.abs": ("np.abs({})", ", ", None, "__builtin_fabs({})"),
    **{f"np.{fn}": (f"np.{fn}({{}})", ", ", None, None)
       for fn in ("exp", "log", "sin", "cos", "tanh", "minimum", "maximum")},
    "kernels.muscl_flux": ("kernels.muscl_flux(geom, {}, u[sel], ghost[sel])", ", ", None, None),
    "take": (None, None, "{}.take({}[sel], axis=0, out={t}, mode='clip')", "{}[c]"),
    "fold": (None, None, None, "{}[c]"),
    "=": ("{}", "", "{t} = {}", "{}"),
})


class Leaf(NamedTuple):
    """An operand: ``'u'`` the unknown's rows, ``'r'`` a register or a bound
    name, ``'c'`` a column coefficient, ``'h'`` a function coefficient's row,
    ``'s'`` a plain float (a scalar coefficient, ``dt``), ``'n'`` the faces'
    geometry (``normal_x`` ..., ``face_dist``), ``'o'`` a known variable on
    the faces' first cells.  A literal is a ``float``, a face's side
    (``u1``, ``u2``, ``uw``) a ``str``."""

    kind: str
    name: str

    def __str__(self) -> str:
        return {"c": "{}[sel][:, None]", "h": "{}[None, :]", "n": "{}[None, :]",
                "o": "{}[cmap_{}[sel], :][:, owner]"}.get(self.kind, "{}").format(
                    self.name, self.name[4:])


class Table(NamedTuple):
    """A sweep's read of the definition ``h``, by the row map of its rows
    (or, with no rows, by the sweep's row): ``wide`` a row of cells or faces
    per table row (else one value), ``test`` a comparison's (boolean)."""

    h: Hoisted
    wide: bool
    test: bool

    def __str__(self) -> str:
        return f"{self.h.name}[tmap_{self.h.rows}[sel]]" if self.h.rows else self.h.name


class Op(NamedTuple):
    """``op`` (:data:`OPS`) on ``args``: operations, operands, literals, text."""

    op: str
    args: tuple

    def __str__(self) -> str:
        template, join = OPS[self.op][:2]
        args = [str(a) for a in self.args]
        base = {"**": 0, "/": 1}.get(self.op)  # of a power, a reciprocal
        if base is not None and isinstance(self.args[base], float) and self.args[base] < 0:
            args[base] = f"({args[base]})"  # ``-1.0 ** x`` would parse as ``-(1.0 ** x)``
        return template.format(join.join(args))


class Stmt(NamedTuple):
    """``target := term``: a register written, or (``=``) a name bound."""

    target: str
    term: Op

    def __str__(self) -> str:
        # (a fresh value, copied in: a complex one is refused, as a ufunc's
        # ``out=`` refuses it, not cast to its real part)
        statement = OPS[self.term.op][2] or "np.copyto({t}, {term})"
        return statement.format(*self.term.args, t=self.target, term=self.term)


class _Registers:
    """Registers of one statement.  With an instance live the walker writes
    every intermediate of a row's shape as a statement (:class:`Stmt`,
    ``register := op(a, b)``) over names ``<prefix>0..<prefix>(count-1)``: C
    locals of a sweep, or (a definition evaluated once per sweep, ``s<i>``)
    arrays the target binds, written through ``out=``; ``owner`` maps a term
    to the register it may be overwritten in."""

    def __init__(self, prefix: str, lines: list[Stmt]):
        self.prefix, self.lines, self.count = prefix, lines, 0
        self.free: list[str] = []
        self.owner: dict[object, str] = {}

    def take(self) -> str:
        if not self.free:
            self.count += 1
            return f"{self.prefix}{self.count - 1}"
        return self.free.pop()

    def release(self, *terms) -> None:
        self.free += [self.owner.pop(t) for t in terms if t in self.owner]

    def emit(self, term: Op, *operands) -> Leaf:
        """The statement ``register := term`` consuming ``operands``, in
        place in the first of them that owns a register."""
        owned = [self.owner.pop(t) for t in operands if t in self.owner]
        self.free += owned[1:]
        reg = owned[0] if owned else self.take()
        self.lines.append(Stmt(reg, term))
        self.owner[Leaf("r", reg)] = reg
        return Leaf("r", reg)


class Upwind(NamedTuple):
    """The select between the two face sides of the unknown a statement
    reads as ``uw``: the index subspace ``rows`` its tabled condition
    depends on, the ``select`` between ``u1`` and ``u2`` (an :class:`Op`),
    and — if that takes the owner side where the condition holds — the
    condition's table (``owner_where``: the owner side can be copied over the
    other one)."""

    rows: str
    select: "Op"
    owner_where: Hoisted | None


@dataclass
class EmittedExpr:
    """One emitted expression and its work estimate (per produced value).

    ``term`` (printed: ``code``) may read sub-expressions moved out of it,
    which the target evaluates first: ``tables`` once per bound geometry
    (their array leaves are ``table_reads``; ``reads`` are those of
    everything else), ``sweep`` once per sweep (the definitions of known
    variables over their rows, and what reads the unknown or has no C form
    over the sweep's rows), ``statements`` (printed: ``prelude``) per
    element of a sweep.  With ``upwind`` (:class:`Upwind`) it reads the
    upwinded side as ``uw``, the select between ``u1`` and ``u2``; ``sides``
    says whether a side is also read on its own.  They write ``registers``
    registers (``f0..`` surface, ``c0..`` volume), the lines of ``sweep``
    ``sweep_registers`` more (``s0..``).  ``folded`` is the same surface
    statement carried through the divergence when it is linear in ``uw``
    (:meth:`ExprEmitter._fold_divergence`): over ``us`` and ``registers``
    registers ``d0..``, its ``tables`` the ones a sweep then reads.
    """

    term: object
    flops: int
    reads: set[str] = field(default_factory=set)
    statements: list[Stmt] = field(default_factory=list)
    tables: list[Hoisted] = field(default_factory=list)
    table_reads: set[str] = field(default_factory=set)
    sweep: list[Hoisted] = field(default_factory=list)
    upwind: Upwind | None = None
    sides: bool = False
    registers: int = 0
    sweep_registers: int = 0
    folded: "EmittedExpr | None" = None

    @property
    def code(self) -> str:
        return str(self.term)

    @property
    def prelude(self) -> list[str]:
        return [str(s) for s in self.statements]

    @property
    def bytes_per_value(self) -> int:
        # one 8-byte read per distinct array leaf + the 8-byte result write
        return 8 * (len(self.reads | self.table_reads) + 1)


class ExprEmitter:
    """Emits volume- and surface-context NumPy code for one problem."""

    def __init__(self, problem: "Problem", form: "ClassifiedForm"):
        self.problem = problem
        self.form = form
        self.unknown = form.unknown
        self.entities = problem.entities
        self.space = self.unknown.space
        # live only inside emit_sum(cse=True): (context, node) -> the code
        # reading the hoisted value; ``_out`` collects the definitions
        self._hoisted: dict | None = None
        self._out = EmittedExpr(0.0, 0)
        self._regs: _Registers | None = None  # live: intermediates go to scratch
        self._sweep_regs: _Registers | None = None
        self._within: tuple | None = None  # scope of the sweep definition being built
        #: index subspaces of the tables emitted so far, by ``tmap_`` suffix
        self.row_spaces: dict[str, tuple[str, ...]] = {}

    # ------------------------------------------------------------- public API
    def emit_volume(self, term: Expr) -> EmittedExpr:
        """Emit a volume integrand producing ``(nsel, ncells)`` values."""
        return self._emit(term, context="volume")

    def emit_surface(self, term: Expr) -> EmittedExpr:
        """Emit a surface integrand producing ``(nsel, nfaces)`` values."""
        return self._emit(term, context="surface")

    def emit_sum(self, terms: list[Expr], context: str, cse: bool = True) -> EmittedExpr:
        """Sum of several integrands (zero if empty).

        With ``cse`` (the default) the statement is rewritten, every element
        keeping its bits: a compound of coefficients and face geometry, or
        of known variables, that depends on fewer indices than the unknown
        is evaluated over those indices only — per bound geometry
        (``tables``) or per sweep (``sweep``) — and row-gathered in the tile
        (one depending on every index stays a tile temporary, ``prelude``;
        one reading a function coefficient, which may depend on time, or the
        unknown stays inline); ``conditional(c, A*k, B*k)`` selects between
        the differing factors and applies the shared ones once; and a select
        between the two face sides of the unknown on a tabled condition
        becomes the single side ``uw``.  What is left in the sweep is emitted
        as register statements (:class:`_Registers`), a sub-tree with no C
        form moved before the sweep (:meth:`_numpy_only`).  One rewrite does
        change rounding: a
        surface statement linear in ``uw`` is also emitted folded through
        the divergence (``folded``, :meth:`_fold_divergence`).
        """
        if not terms:
            return EmittedExpr(0.0, 0)
        self._tag = context[0]  # names: tab_s0, swp_v1, cse_s0
        self._hoisted = {} if cse else None
        self._out = out = EmittedExpr(0.0, 0)
        if cse:
            self._regs = _Registers("f" if context == "surface" else "c", out.statements)
            self._sweep_regs = _Registers("s", [])
        try:
            signed, minus = self._signed(terms)
            parts = [self._emit(t, context) for t in signed]
            out.term = (self._fold("+", [(p.term, self._kind(t)) for p, t in zip(parts, signed)],
                                   minus)
                        if cse else " + ".join(f"({p.code})" for p in parts))
            if cse:
                out.registers, out.sweep_registers = self._regs.count, self._sweep_regs.count
                if context == "surface":
                    self._fold_divergence(terms, out)
        finally:
            self._hoisted = self._regs = self._sweep_regs = None
        out.flops = sum(map(_count_flops, terms)) + (len(parts) - 1)  # as written
        for p in parts:
            out.reads |= p.reads
        return out

    # ------------------------------------------------------------- internals
    def _emit(self, term: Expr, context: str) -> EmittedExpr:
        reads: set[str] = set()
        flops = _count_flops(term)
        return EmittedExpr(self._walk(term, context, reads), flops, reads)

    def _entity_of(self, node: Expr) -> str | None:
        """Name of the entity a ``Sym``/``Indexed`` leaf refers to."""
        if isinstance(node, Indexed):
            return node.base
        if isinstance(node, Sym) and node.name.startswith("_") and node.name.endswith("_1"):
            return node.name[1:-2]
        return None

    def _is_unknown(self, node: Expr) -> bool:
        """Whether ``node`` reads the unknown — which a statement may only at
        the component it computes (``I[d,b]``, never ``I[d,1]``): every target
        sweeps the rows independently and forward Euler stores in place."""
        if self._entity_of(node) != self.unknown.name:
            return False
        if isinstance(node, Indexed) and node.indices != self.unknown.index_names():
            raise CodegenError(
                f"{node} reads the unknown outside the tile's own rows: a "
                "statement may only read the component it computes",
                code="RPR141")
        return True

    def _hoist_scope(self, node: Expr) -> tuple[str, tuple[str, ...]] | None:
        """Where a compound may be evaluated ahead of its statement:
        ``('bind', indices)`` — only non-function coefficients and face
        geometry, on a strict subset of the unknown's indices: a
        step-invariant table over that subspace; ``('sweep', indices)`` —
        the same with known variables, which change between steps, not
        within one; ``('tile', ())`` — invariant but on every index: a table
        would be as large as a face array."""
        if not isinstance(node, (Add, Mul, Pow, Cmp)):
            return None
        indices: set[str] = set()
        leaves, variable, shaped = 0, False, False
        for sub in preorder(node):
            if isinstance(sub, (Num, Add, Mul, Pow, Cmp)):
                continue
            if isinstance(sub, (FaceNormal, FaceDistance)):
                shaped = True
            else:
                name = self._entity_of(sub)
                coef = self.entities.coefficients.get(name)
                var = self.entities.variables.get(name)
                if coef is not None and not coef.is_function:
                    indices.update(coef.index_names())
                    shaped = shaped or bool(coef.indices)
                elif var is not None and name != self.unknown.name:
                    indices.update(var.index_names())
                    variable = shaped = True
                else:
                    return None
            leaves += 1
        if not indices <= set(self.space.names):
            return None  # the plain walk reports the foreign index
        # a table needs an array to index: pure float arithmetic has none
        if shaped and len(indices) < len(self.space.names):
            if variable and isinstance(node, Cmp):
                return None
            rows = tuple(n for n in self.space.names if n in indices)
            return ("sweep" if variable else "bind"), rows
        if variable or isinstance(node, Cmp) or leaves < 2:
            return None  # hoisting single leaves buys nothing
        return "tile", ()

    def _define(self, scope: tuple[str, tuple[str, ...]], node: Expr, ctx: str,
                reads: set[str]) -> Leaf | Table:
        """Emit and record a hoisted definition; returns how a tile reads it.
        Hoisting is not re-entered, except that a sweep definition reads an
        earlier one over the same rows by name (``Io/beta`` reads ``1/beta``);
        a table's code runs once and stays a plain expression, a volume
        statement's sweep definition gets registers of its own."""
        kind, rows = scope
        out, regs = self._out, self._regs
        if kind == "rows":  # in NumPy, as written, over the sweep's rows
            hoisted, self._hoisted, self._regs = self._hoisted, None, None
            try:
                code = self._walk(node, ctx, reads, hoist=False)
            finally:
                self._hoisted, self._regs = hoisted, regs
            out.sweep.append(Hoisted(f"pre_{self._tag}{len(out.sweep)}", str(code), "", (),
                                     "faces" if regs.prefix == "f" else "cells"))
            return Table(out.sweep[-1], True, False)
        saved = self._hoisted, self._within, regs, self._sweep_regs and self._sweep_regs.lines
        lines: list[Stmt] = []
        if kind == "sweep":
            self._within = scope
        else:
            self._hoisted = None
        if kind == "sweep" and ctx == "volume" and regs is not None:
            self._regs = self._sweep_regs
            self._regs.lines = lines
        elif kind != "tile":
            self._regs = None
        try:
            code = self._walk(node, ctx, out.table_reads if kind == "bind" else reads,
                              hoist=False)
        finally:
            self._hoisted, self._within, self._regs, lines_before = saved
            if self._sweep_regs is not None:
                self._sweep_regs.lines = lines_before
        if kind == "tile":
            name = f"cse_{self._tag}{sum(s.term.op == '=' for s in out.statements)}"
            out.statements.append(Stmt(name, Op("=", (code,))))
            return Leaf("r", name)
        suffix = "_".join(rows) or "none"
        self.row_spaces[suffix] = rows
        prefix, defs = ("tab", out.tables) if kind == "bind" else ("swp", out.sweep)
        defs.append(Hoisted(f"{prefix}_{self._tag}{len(defs)}", str(code), suffix,
                            tuple(map(str, lines)), "" if kind == "bind" else
                            "faces" if ctx == "surface" else "cells"))
        return Table(defs[-1], self._kind(node) in "tr", isinstance(node, Cmp))

    def _narrow(self, node: Expr) -> bool:
        """Whether NumPy holds ``node``'s value in a narrower type than
        float64 (a comparison's bool, a function of one): arithmetic on two
        such values is NumPy's, not C's."""
        if isinstance(node, Cmp):
            return True
        if isinstance(node, Conditional):
            return self._narrow(node.then) and self._narrow(node.otherwise)
        return isinstance(node, (Add, Mul, Call)) and all(map(self._narrow, node.args))

    def _numpy_only(self, node: Expr) -> bool:
        """Whether a statement's sub-tree has no C form (:data:`OPS`): a
        transcendental, a power other than ``x^-1``, ``min``/``max``, a
        function registered with another code, a reconstruction, arithmetic
        on NumPy's bools — of anything but plain floats, which Python
        computes before the call.  Such a sub-tree is evaluated in NumPy
        over the sweep's rows before the sweep (:meth:`_define`), each
        element with the bits it has in a whole-row NumPy expression."""
        regs = self._regs
        if regs is None or regs is self._sweep_regs or self._within is not None \
                or self._kind(node) == "0":
            return False
        if isinstance(node, Reconstruction):
            return True
        if isinstance(node, Call):
            code = FUNCTION_CODES.get(node.func)
            return code is not None and (OPS[code][3] is None or any(map(self._narrow, node.args)))
        if isinstance(node, Pow):
            return not (isinstance(node.exponent, Num) and node.exponent.value == -1) \
                or self._narrow(node.base)
        if isinstance(node, (Add, Mul)):
            narrow = [self._narrow(a) for a in node.args]
            return sum(narrow) >= 2 or any(narrow) and all(
                n or self._kind(a) == "0" for a, n in zip(node.args, narrow))
        return False

    def _kind(self, node: Expr) -> str:
        """Shape of a node's value in a tile: ``'0'`` a scalar, ``'c'`` a
        column ``(rows, 1)``, ``'r'`` a row ``(1, n)``, ``'t'`` a tile."""
        if isinstance(node, (FaceNormal, FaceDistance)):
            return "r"
        if isinstance(node, (SideValue, Reconstruction)):
            return "t"
        name = self._entity_of(node)
        if name is not None and name in self.entities.coefficients:
            coef = self.entities.coefficients[name]
            return "r" if coef.is_function else "c" if coef.indices else "0"
        if name is not None:
            return "t"  # a variable
        return _join(*(self._kind(child) for child in node.children))

    def _fold(self, op: str, items: list[tuple[object, str]], minus=()) -> object:
        """``a op b op c`` over ``(term, kind)`` operands, evaluated left to
        right as Python would — with registers live, from the first
        tile-shaped intermediate on as ``np.op(acc, b, out=register)``; the
        operands of a sum at the positions ``minus`` (:meth:`_signed`) are
        subtracted, a first one from the second (``(-y) + x`` is ``x - y``)."""
        regs = self._regs
        if len(items) == 1:
            return items[0][0]
        if 0 in minus:
            items, minus = [items[1], items[0], *items[2:]], {1, *minus} - {0}
        if regs is None:
            return Op(op, tuple(code for code, _ in items))
        inline, kind, acc = [items[0][0]], items[0][1], None
        for i, (code, k) in enumerate(items[1:], 1):
            kind = _join(kind, k)
            if kind != "t":
                inline.append(code)
                continue
            if acc is None:
                acc = inline[0] if len(inline) == 1 else Op(op, tuple(inline))
            acc = regs.emit(Op("-" if i in minus else op, (acc, code)), acc, code)
        return Op(op, tuple(inline)) if acc is None else acc

    def _signed(self, terms) -> tuple[list[Expr], set[int]]:
        """The terms of a sum and the positions of those :meth:`_fold`
        subtracts: with registers live ``x + (-1*y)`` is emitted as ``x - y``
        — the same bits (a NaN operand's sign aside) without the pass that
        multiplies a tile by -1.  Two leading ones: the first keeps its factor."""
        terms = list(terms)
        minus = {i for i, t in enumerate(terms if self._regs is not None else ())
                 if isinstance(t, Mul) and Num(-1) in t.args and len(t.args) > 1
                 and self._kind(t) == "t"}
        if len(terms) == 1 or 1 in minus:
            minus.discard(0)  # nothing added to subtract the first from
        for i in minus:
            rest = list(terms[i].args)
            rest.remove(Num(-1))
            terms[i] = Mul(*rest) if len(rest) > 1 else rest[0]
        return terms, minus

    def _inline(self, kind: str, expr: Op, *operands) -> object:
        """A compound with no ``out=`` form: the expression itself, or — a
        tile with registers live — copied into a register (its value is a
        fresh array, and may be less than a tile: a select between a row
        and a scalar on one table row) the operands' registers are freed
        for."""
        if self._regs is None or kind != "t":
            return expr
        self._regs.release(*operands)
        return self._regs.emit(expr)

    @staticmethod
    def _split_select(node: Conditional) -> tuple[tuple, tuple, int]:
        """``(then, otherwise, i)``: the factors of the two branches of
        ``conditional(c, A*k, B*k)`` and the one position they differ at —
        the whole branches when they differ in more."""
        then = node.then.args if isinstance(node.then, Mul) else (node.then,)
        other = node.otherwise.args if isinstance(node.otherwise, Mul) else (node.otherwise,)
        differ = [i for i, (a, b) in enumerate(zip(then, other)) if a != b]
        if len(then) != len(other) or len(differ) != 1:
            return (node.then,), (node.otherwise,), 0
        return then, other, differ[0]

    def _linear_upwind(self, node: Expr) -> tuple[list[Expr], list[Expr], Expr] | None:
        """``(flat, faces, condition)`` if ``node`` is a product of one select
        between the two face sides of the unknown and factors that are the
        same on both sides: ``flat`` those that do not depend on the face
        (numbers, component-indexed coefficients), ``faces`` the others."""
        def split(factors):
            flat = [a for a in factors if self._kind(a) in ("0", "c")]
            return flat, [a for a in factors if a not in flat]

        if isinstance(node, Mul):
            flat, rest = split(node.args)
            inner = self._linear_upwind(rest[0]) if len(rest) == 1 else None
            return inner and (flat + inner[0], *inner[1:])
        if isinstance(node, Conditional):
            then, other, i = self._split_select(node)
            if sorted(n.side for n in (then[i], other[i])
                      if isinstance(n, SideValue) and self._is_unknown(n.expr)) == [1, 2]:
                return *split([a for j, a in enumerate(then) if j != i]), node.cond
        return None

    def _fold_divergence(self, terms: list[Expr], out: EmittedExpr) -> None:
        """Hoist the step-invariant factors of a surface statement through
        the divergence.  ``surface()`` is linear, so when every term is a
        product linear in the one upwinded side ``uw`` whose other factors
        are tables over the rows of the upwind choice (``faces``) or do not
        depend on the face (``flat``), the tables, the choice and the
        divergence's weights fold into one cell-centric operator per term
        (``fold_s<i>``, :func:`repro.fvm.kernels.fold_upwind`, built with
        the tables) and the tile computes the term's divergence from ``us``
        directly — its own cell's coefficient plus one gather per inflow
        face — followed by the flat factors, once per row.  The result is
        ``out.folded``; the face-centric statement stays as emitted, for the
        boundary faces.  This changes rounding (the products associate
        differently), not the scheme."""
        if out.upwind is None or out.sides:
            return
        products = [self._linear_upwind(t) for t in terms]
        if not all(products):
            return
        rows, hoisted = out.upwind.rows, self._hoisted
        space = self.row_spaces[rows]

        def table(*factors: Expr) -> Hoisted | None:
            """The table of a product over the choice's rows, defined now if
            the statement did not read it as one."""
            node = factors[0] if len(factors) == 1 else Mul(*factors)
            if ("surface", node) not in hoisted and self._hoist_scope(node) == ("bind", space):
                hoisted["surface", node] = self._define(("bind", space), node, "surface", set())
            found = hoisted.get(("surface", node))
            return found.h if isinstance(found, Table) and found.h.rows == rows else None

        used = [h for h in out.tables if h.name == "upw"]
        folds: list[Hoisted] = []
        for n, (flat, faces, cond) in enumerate(products):
            mask = table(cond)
            found = table(*faces) if faces else None
            if faces and found is None:
                # in one space dimension ``n.s[d]`` is a product with the
                # column ``s[d]``: the columns over the choice's rows join
                over = [a for a in flat
                        if isinstance(a, Indexed) and set(a.indices) <= set(space)]
                found = table(*faces, *over)
                flat[:] = [a for a in flat if a not in over]
            if found is None or mask is None:
                return  # a face factor that is no table over the choice's rows
            used += [found, mask, *(getattr(hoisted.get(("surface", a)), "h", None)
                                    for a in faces)]
            folds.append(Hoisted(
                f"fold_s{n}",
                f"kernels.fold_upwind(divergence, {found.name}, upw, NCELLS)", rows))
        folded = EmittedExpr(0.0, 0)
        regs = self._regs = _Registers("d", folded.statements)
        regs.free.append("acc")  # the first term is formed where the tile sums
        self._hoisted = None  # the flat factors are columns: inline, as written
        parts = []
        for (flat, _, _), fold in zip(products, folds):
            div = regs.emit(Op("fold", (fold.name, rows)))
            parts.append((self._fold(
                "*", [(self._walk(a, "surface", set()), self._kind(a)) for a in flat]
                + [(div, "t")]), "t"))
        folded.term = self._fold("+", parts)
        folded.registers = regs.count
        # a tile reads the folds; the face tables went into them
        folded.tables = [h for h in out.tables if h not in used] + folds
        out.folded = folded

    def _walk_select(self, node: Conditional, ctx: str, reads: set[str]) -> object:
        """``conditional(c, A*k, B*k)``: select between the factors that
        differ, multiply by the shared ones once, each in its original
        position — per element the same product as selecting between the
        two full products."""
        cond = self._walk(node.cond, ctx, reads)
        then, other, i = self._split_select(node)
        factors = [None if j == i else self._walk(a, ctx, reads)
                   for j, a in enumerate(then)]
        out = self._out
        kinds = [self._kind(n) for n in (node.cond, then[i], other[i])]
        table = cond.h if isinstance(cond, Table) and cond.h in out.tables else None
        pair = [n.side for n in (then[i], other[i])
                if isinstance(n, SideValue) and self._is_unknown(n.expr)]
        if table and ctx == "surface" and sorted(pair) == [1, 2]:
            # a tabled condition choosing between the two sides of the
            # unknown *is* an index choice: which column to gather
            (a, ca), (b, cb) = [(f"u{s}", ("owner", "other")[s - 1]) for s in pair]
            upwind = Upwind(table.rows, Op("np.where", (cond, a, b)),
                            table if a == "u1" else None)
            if out.upwind is None:
                out.upwind = upwind
                out.tables.append(Hoisted(
                    "upw", f"np.where({table.name}, {ca}, {cb})", table.rows))
            if out.upwind == upwind:
                reads.update((a, b))
                factors[i] = "uw"
        if factors[i] is None:
            a, b = self._walk(then[i], ctx, reads), self._walk(other[i], ctx, reads)
            factors[i] = self._inline(_join(*kinds), Op("np.where", (cond, a, b)), cond, a, b)
        return self._fold("*", [(f, _join(*kinds) if j == i else self._kind(a))
                                for j, (f, a) in enumerate(zip(factors, then))])

    def _walk(self, node: Expr, ctx: str, reads: set[str], hoist: bool = True) -> object:
        hoisted = self._hoisted
        scope = self._hoist_scope(node) if hoist and hoisted is not None else None
        if self._within not in (None, scope):
            scope = None  # inside a definition: only its own kind and rows
        if (scope is None or scope[0] == "tile") and self._numpy_only(node):
            scope = ("rows", ())  # evaluated over the sweep's rows, before it
        if scope is not None:
            key = (ctx, node)
            table = None if hoisted is None else hoisted.get(key)
            if table is None:
                table = self._define(scope, node, ctx, reads)
                if hoisted is not None:
                    hoisted[key] = table
            if isinstance(table, Leaf):
                return table
            if self._within is not None:
                return table.h.name
            return table
        if isinstance(node, Num):
            return float(node.value)
        if isinstance(node, Sym):
            return self._emit_sym(node, ctx, reads)
        if isinstance(node, Indexed):
            return self._emit_indexed(node, ctx, side=None, reads=reads)
        if isinstance(node, SideValue):
            return self._emit_side(node, ctx, reads)
        if isinstance(node, FaceNormal):
            if ctx != "surface":
                raise CodegenError("face normals only exist in surface terms")
            name = _AXIS_NAMES[node.component]
            reads.add(name)
            return Leaf("n", name)
        if isinstance(node, FaceDistance):
            if ctx != "surface":
                raise CodegenError("face distances only exist in surface terms")
            reads.add("face_dist")
            return Leaf("n", "face_dist")
        if isinstance(node, (Add, Mul)):
            args, minus = self._signed(node.args) if isinstance(node, Add) else (node.args, ())
            return self._fold("+" if isinstance(node, Add) else "*",
                              [(self._walk(a, ctx, reads), self._kind(a)) for a in args], minus)
        if isinstance(node, Pow):
            base = self._walk(node.base, ctx, reads)
            if isinstance(node.exponent, Num):
                e = node.exponent.value
                if e != -1:
                    return self._inline(self._kind(node), Op("**", (base, float(e))), base)
                if self._regs is None or self._kind(node) != "t":
                    return Op("/", (1.0, base))
                return self._regs.emit(Op("/", (1.0, base)), base)
            exponent = self._walk(node.exponent, ctx, reads)
            return self._inline(self._kind(node), Op("**", (base, exponent)), base, exponent)
        if isinstance(node, Cmp):
            lhs = self._walk(node.lhs, ctx, reads)
            rhs = self._walk(node.rhs, ctx, reads)
            return self._inline(self._kind(node), Op(node.op, (lhs, rhs)), lhs, rhs)
        if isinstance(node, Conditional):
            return self._walk_select(node, ctx, reads)
        if isinstance(node, Reconstruction):
            if ctx != "surface":
                raise CodegenError("flux reconstructions only exist in surface terms")
            if node.scheme != "muscl":
                raise CodegenError(f"unknown reconstruction scheme {node.scheme!r}")
            if not self._is_unknown(node.quantity):
                raise CodegenError(
                    "second-order reconstruction supports only the unknown"
                )
            vn = self._walk(node.velocity_normal, ctx, reads)
            reads.update({"u", "ghost", "geom"})
            return self._inline("t", Op("kernels.muscl_flux", (vn,)), vn)
        if isinstance(node, Call):
            if node.func in FUNCTION_CODES:
                args = tuple(self._walk(a, ctx, reads) for a in node.args)
                return self._inline(self._kind(node), Op(FUNCTION_CODES[node.func], args), *args)
            raise CodegenError(
                f"callback {node.func!r} cannot appear inside an equation term; "
                "use a function coefficient or a boundary/step callback instead"
            )
        raise CodegenError(f"cannot emit node type {type(node).__name__}: {node}")

    # -- leaves -----------------------------------------------------------------
    def _emit_sym(self, node: Sym, ctx: str, reads: set[str]) -> object:
        name = node.name
        if name.startswith("_") and name.endswith("_1"):
            base = name[1:-2]
            kind = self.entities.kind_of(base)
            if kind == "variable":
                return self._emit_variable(base, ctx, side=None, reads=reads)
            if kind == "coefficient":
                return self._emit_coefficient(base, ctx, reads)
        if name == "dt":
            return Leaf("s", "dt")
        raise CodegenError(f"cannot emit symbol {name!r}")

    def _emit_indexed(
        self, node: Indexed, ctx: str, side: int | None, reads: set[str]
    ) -> object:
        kind = self.entities.kind_of(node.base)
        if kind == "variable":
            self._is_unknown(node)  # RPR141 on a foreign row
            return self._emit_variable(node.base, ctx, side, reads)
        if kind == "coefficient":
            return self._emit_coefficient(node.base, ctx, reads)
        raise CodegenError(f"cannot emit indexed entity {node.base!r}")

    def _emit_side(self, node: SideValue, ctx: str, reads: set[str]) -> str:
        if ctx != "surface":
            raise CodegenError("face-side values only exist in surface terms")
        inner = node.expr
        if self._is_unknown(inner):
            name = "u1" if node.side == 1 else "u2"
            reads.add(name)
            self._out.sides = True  # read on its own, not through an upwind select
            return name
        raise CodegenError(
            f"face reconstruction of {inner} is not supported (only the "
            "unknown can be upwinded/averaged)"
        )

    def _emit_variable(
        self, name: str, ctx: str, side: int | None, reads: set[str]
    ) -> object:
        if name == self.unknown.name:
            if ctx == "surface":
                raise CodegenError(
                    f"unknown {name!r} in a surface term must be wrapped in a "
                    "flux reconstruction (upwind/average)"
                )
            reads.add("u")
            return "u[sel]" if self._regs is None else Leaf("u", "us")
        # known variable: ``var_<name>``, which the function reading it binds
        # (:func:`bind_known`) or is handed (a device kernel's argument); its
        # components mapped onto the unknown's axis
        self._check_subspace(name, self.entities.variables[name].index_names())
        arr, cmap = f"var_{name}", f"cmap_{name}"
        reads.add(arr)
        if ctx == "volume" and self._regs is not None:
            return self._regs.emit(Op("take", (arr, cmap)))
        if ctx == "volume":
            return f"{arr}[{cmap}[sel], :]"
        # surface context: known variables are evaluated on the owner side
        return Leaf("o", arr)

    def _emit_coefficient(self, name: str, ctx: str, reads: set[str]) -> Leaf:
        coef = self.entities.coefficients[name]
        if coef.is_function:
            tag = f"fcoef_{name}" if ctx == "volume" else f"fcoef_{name}_face"
            reads.add(tag)
            return Leaf("h", tag)
        if not coef.indices:
            return Leaf("s", f"coef_{name}")  # plain float, no array read
        self._check_subspace(name, coef.index_names())
        reads.add(f"coef_{name}")
        return Leaf("c", f"coef_{name}")

    def _check_subspace(self, name: str, index_names: tuple[str, ...]) -> None:
        for ix in index_names:
            if ix not in self.space.names:
                raise CodegenError(
                    f"entity {name!r} uses index {ix!r} which the unknown "
                    f"{self.unknown.name!r} does not carry"
                )

    # ------------------------------------------------------ environment tables
    def component_tables(self) -> dict[str, object]:
        """Numeric tables the generated code needs (computed once).

        Returns a dict with, for every known variable ``v`` referenced,
        ``cmap_v`` — the (ncomp_unknown,) map from unknown component to the
        variable's component — for every array coefficient ``c``,
        ``coef_c`` broadcast to the unknown's component axis, and for every
        index subspace the emission so far built a table over,
        ``tmap_<ix>`` (component -> table row) and ``trep_<ix>`` (the first
        component of each row).  Call it after emitting.
        """
        import numpy as np

        out: dict[str, object] = {}
        referenced = self._referenced_entities()
        for name in referenced["variables"]:
            if name != self.unknown.name:
                out[f"cmap_{name}"] = self._row_map(
                    self.entities.variables[name].index_names())
        for name in referenced["coefficients"]:
            coef = self.entities.coefficients[name]
            if coef.is_function:
                continue  # evaluated per step by the generated driver
            if coef.indices:
                values = np.asarray(coef.value, dtype=np.float64).reshape(-1)
                out[f"coef_{name}"] = values[self._row_map(coef.index_names())]
            else:
                out[f"coef_{name}"] = float(coef.value)
        for suffix, names in self.row_spaces.items():
            rows = self._row_map(names)
            out[f"tmap_{suffix}"] = rows
            out[f"trep_{suffix}"] = np.unique(rows, return_index=True)[1]
        return out

    def _row_map(self, names: tuple[str, ...]):
        """Per component of the unknown, its flat (row-major) position in
        the space of the indices ``names`` — all zeros when there are none."""
        import numpy as np

        flat = np.zeros(self.space.ncomp, dtype=np.int64)
        for ix in names:
            flat = flat * self.space.size(ix) + self.space.axis_values(ix)
        return flat

    def _referenced_entities(self) -> dict[str, list[str]]:
        variables: list[str] = []
        coefficients: list[str] = []
        for term in list(self.form.volume_terms) + list(self.form.surface_terms):
            for node in preorder(term):
                name = self._entity_of(node)
                if name is None:
                    continue
                kind = self.entities.kind_of(name)
                if kind == "variable" and name not in variables:
                    variables.append(name)
                elif kind == "coefficient" and name not in coefficients:
                    coefficients.append(name)
        return {"variables": variables, "coefficients": coefficients}

    def referenced_known_variables(self) -> list[str]:
        """Known (non-unknown) variables the equation reads, each read as
        ``var_<name>``."""
        return [
            name
            for name in self._referenced_entities()["variables"]
            if name != self.unknown.name
        ]

    def function_coefficients(self) -> dict[str, object]:
        """Function-valued coefficients referenced by the equation."""
        refs = self._referenced_entities()["coefficients"]
        return {
            name: self.entities.coefficients[name]
            for name in refs
            if self.entities.coefficients[name].is_function
        }


def bind_known(emitter: ExprEmitter, reads: set[str]) -> list[str]:
    """A host function's bindings of the known variables among ``reads``,
    from the state it is handed (a cell rank's are its own fields)."""
    return [f"var_{n} = state.fields[{n!r}].data"
            for n in emitter.referenced_known_variables() if f"var_{n}" in reads]


def hoisted_lines(defs: list[Hoisted], registers: int = 0, buffer: str = "state.buffer",
                  ncells: str = "NCELLS", sweep: tuple[str, str, str] = ("", "", ""),
                  tag: str = "") -> list[str]:
    """Assignments evaluating ``defs``, each over its own rows; the lines of
    definitions that use them find the ``registers`` names ``s<i>`` bound to
    arrays of ``buffer(name, shape)`` as tall as those rows.  A table is a
    fresh array (built once per geometry); a definition read per sweep is
    written, over its rows or else the sweep's (``sweep``: their selector,
    their number, the faces' count), into an array keyed by ``tag`` (the
    sweep's) and its name: two sweeps of one state keep an array each."""
    lines: list[str] = []
    rows = None
    for h in defs:
        if h.rows != rows:
            rows = h.rows
            lines.append(f"sel = trep_{rows}  # one component per row" if rows else
                         f"sel = {sweep[0]}  # the sweep's rows")
            lines += [f"s{i} = {buffer}('sweep{i}:{rows}', (len(sel), {ncells}))"
                      for i in range(registers if rows else 0)]
        if h.lines or not h.width:  # (a sweep reads a table's rows in C order)
            lines += [*h.lines, f"{h.name} = {h.code}" if h.lines else
                      f"{h.name} = np.ascontiguousarray({h.code})"]
        else:
            width = ncells if h.width == "cells" else sweep[2]
            lines += [f"{h.name} = {buffer}({tag + h.name!r}, "
                      f"({'len(sel)' if rows else sweep[1]}, {width}))",
                      f"np.copyto({h.name}, {h.code})"]
    return lines


def _function(head: str, body: list[str]) -> list[str]:
    return [head] + ["    " + ln if ln else ln for ln in body] + ["", ""]


def _invariant_tables(surface: EmittedExpr,
                      volume: EmittedExpr) -> tuple[list[str], str, str]:
    """Source of ``invariant_tables`` (and ``folded_tables``), the names of
    the list ``invariant_tables`` returns and of the one a tile reads."""
    tables = surface.tables + volume.tables
    if not tables:
        return [], "", ""
    reads = surface.table_reads | volume.table_reads
    body = [
        '"""Sub-expressions that never change between steps, each over the',
        "indices it depends on (``tmap_*``: component -> row), on the faces",
        "whose geometry is passed; ``owner``/``other`` name where each face's",
        'two sides live: a cell, or ``~slot`` of the ghost values."""',
    ]
    body += [f"{name} = normal[:, {axis - 1}]" for axis, name in _AXIS_NAMES.items()
             if name in reads]
    body += hoisted_lines(tables)
    names = ", ".join(h.name for h in tables)
    body.append(f"return [{names}]")
    setup = _function("def invariant_tables(normal, face_dist, owner, other):", body)
    if surface.folded is None:
        return setup, names, names
    read = surface.folded.tables + volume.tables
    folds = [h for h in read if h not in tables]
    setup += _function(
        "def folded_tables(normal, face_dist, owner, other, divergence):",
        ['"""What a tile reads of ``invariant_tables`` on the interior faces passed:',
         "their tables folded through their ``divergence`` (its CSR rows) into",
         'one cell-centric operator per term, and the tables with no face axis."""',
         f"[{names}] = invariant_tables(normal, face_dist, owner, other)",
         *[f"{h.name} = {h.code}" for h in folds],
         f"return [{', '.join(h.name for h in read)}]"])
    return setup, names, ", ".join(h.name for h in read)


def _definitions(surface: EmittedExpr, volume: EmittedExpr, read: tuple[str, ...],
                 buffer: str, ncells: str, sweep: tuple[str, str, str], sides: str,
                 tag: str = "") -> list[str]:
    """What a sweep reads that NumPy evaluates before the call: the
    definitions of known variables, once over their own rows, then those it
    reads (``read``) that read the unknown or have no C form, over the
    sweep's rows — a surface one from the faces' sides (gathered by
    ``sides``) and geometry."""
    defs = surface.sweep + volume.sweep
    late = [h for h in defs if not h.rows and h.name in read]
    lines = hoisted_lines([h for h in defs if h.rows], volume.sweep_registers, buffer, ncells,
                          sweep, tag)
    lines = ["# sub-expressions of known variables, once over their own rows"] * bool(lines) + lines
    if "faces" in read and surface.sweep:  # (a surface definition reads the faces' own)
        lines[:0] = ([f"{name} = faces.normal[{axis - 1}]" for axis, name in _AXIS_NAMES.items()
                      if name in surface.reads]
                     + ["face_dist = faces.dist"] * ("face_dist" in surface.reads)
                     + ["owner = faces.cell"])
    if late:
        lines.append("# what has no C form, in NumPy over the sweep's rows")
    if any(re.search(r"\bu[12]\b", h.code) for h in late):
        lines.append(f"u1, u2 = {sides}")
    return lines + hoisted_lines(late, 0, buffer, ncells, sweep, tag)


def _boundary_part(emitter: ExprEmitter, surface: EmittedExpr, tables: str,
                   lowered) -> list[str]:
    """Source of ``compute_boundary_contribution(state, u_bdry, t)``: the
    face-centric surface statement over the boundary faces alone, into the
    boundary cells' columns — one foreign call, ``BOUNDARY``
    (:attr:`repro.codegen.ctile.Lowered.boundary`) — the part of the step
    every target leaves to the CPU and its user callbacks (with only the
    upwinded side read, preceded by ``boundary_tables``)."""
    form = emitter.form
    body = [
        '"""Boundary part of the RHS, from the owner values of the boundary',
        "faces, ``u[:, geom.bowner]`` in C order — all it reads of the unknown",
        "(on a device target it runs on the CPU, concurrently with the interior",
        "kernel: paper Fig. 6).  Returns du/dt|_boundary in the boundary cells'",
        'columns, ``(NCOMP, len(geom.bcells))``."""',
        "geom = state.geom",
        "dt = state.dt",
        "du_bdry = state.buffer('du_bdry', (NCOMP, len(geom.bcells)))",
    ]
    head = "def compute_boundary_contribution(state, u_bdry, t):"
    if not form.surface_terms:
        return _function(head, body + ["du_bdry.fill(0.0)", "return du_bdry"])
    upwind = surface.upwind
    in_place = upwind is not None and upwind.owner_where and not surface.sides
    setup: list[str] = []
    body += [*bind_known(emitter, surface.reads), "faces = geom.face_loop('boundary')"]
    if in_place:  # the same tables, over the boundary faces' geometry, and the mask
        setup = _function("def boundary_tables(*geometry):", [
            '"""``invariant_tables`` on the boundary faces, and where the flow enters."""',
            f"[{tables}] = invariant_tables(*geometry)",
            f"return [{tables}, ~{upwind.owner_where.name}[tmap_{upwind.rows}]]"])
        body.append(f"[{tables}, inflow] = state.tables(boundary_tables, 'boundary')")
    elif tables:  # the same tables, over the boundary faces' geometry
        body.append(f"[{tables}] = state.tables(invariant_tables, 'boundary')")
    body += [
        "# FLUX-type callbacks, evaluated from the owner values as they came",
        "overrides = state.bset.flux_overrides(u_bdry, t, dt, state.extra, slots=True)",
    ]
    if in_place:
        # only ``uw`` is read: the owner value, and where the flow enters the
        # ghost value — formed in place
        body += [
            "# the upwinded side, in place: ghost values (boundary conditions,",
            "# user callbacks) over the owner values where the flow enters",
            "state.bset.ghost_values(u_bdry, t, dt, state.extra, u_bdry, where=inflow)",
        ]
    else:
        body += [
            "# ghost values from the boundary conditions (user callbacks)",
            "ghost = state.bset.ghost_values(u_bdry, t, dt, state.extra,",
            "                                state.buffer('ghost', u_bdry.shape))",
        ]
    body += _definitions(surface, EmittedExpr(0.0, 0), lowered.operands, "state.buffer",
                         "geom.ncells", ("slice(None)", "NCOMP", "len(faces.side1)"),
                         "u_bdry, ghost", "boundary:")
    body += [f"# face flux: {t}" for t in form.surface_terms]
    args = ", ".join(["state.buffer('boundary_tile', faces.side1.shape)", *lowered.operands])
    body += [f"BOUNDARY(state.plans, ({', '.join(['dt', *lowered.scalars])},), None, u_bdry, "
             f"du_bdry,", f"         {args})"]
    body.append("return du_bdry")
    return setup + _function(head, body)


#: the steppers whose sweep stores the explicit update itself
EULER = ("euler", "euler_explicit")


def emit_interior(emitter: ExprEmitter, surface: EmittedExpr, volume: EmittedExpr,
                  device: bool, *, stepper: str = "euler",
                  owned_columns: bool = False) -> list[str]:
    """The finite-volume interior of every target — the ``surface`` and
    ``volume`` statements ``emitter`` emitted — for where the step's
    placement put ``interior_update``, and the source lines and the printed
    sweep (:func:`repro.codegen.ctile.lower`) it calls.

    On the host it is ``compute_rhs(state, u, t, rows=None)`` (``rows``: a
    band rank's): under forward Euler the sweep stores ``u + dt * rhs``
    itself (a cell rank, ``owned_columns``, only in the columns it owns),
    fills the post-step callbacks' declared reductions (``state.reduced``)
    and returns its proof that ``u`` is finite (the host step keeps it,
    ``state.u_proved_finite``); other steppers get the RHS back.  On the
    ``device`` it is a launch over the interior faces into ``u_new``,
    ``interior_kernel(state, u, var_*, u_new, buffer, sel)``, before
    ``finish_step``, printed into every unit
    (:attr:`repro.codegen.ctile.Lowered.finish`).  Either is one C call, ``TILE``: a
    statement folded through the divergence (:meth:`ExprEmitter.
    _fold_divergence`) a loop over the cells, its boundary faces the one
    ``compute_boundary_contribution`` (``BOUNDARY``, a loop over those
    faces), which a host sweep adds into the boundary cells' columns; a
    two-sided one a loop over the faces, then the cells.  What has no C form
    is evaluated in NumPy first (:meth:`ExprEmitter._numpy_only`).  A row
    reads the unknown only through itself (RPR141 on anything else), so it
    stores in place.
    """
    from repro.codegen import ctile  # (which reads the statement record defined here)

    form = emitter.form
    folded = surface.folded
    inplace = device or stepper in EULER
    two_sided = bool(form.surface_terms) and folded is None
    upwind = surface.upwind
    part = (surface, bool(upwind and upwind.owner_where and not surface.sides))
    tile = ctile.lower(volume, inplace, folded=folded, surface=surface if two_sided else None,
                       boundary=part if (folded or device) and form.surface_terms else None)
    setup, invariant, tables = _invariant_tables(surface, volume)
    lines = setup
    if device:
        known = "".join(f"var_{n}, " for n in emitter.referenced_known_variables())
        head = f"def interior_kernel(state, u, {known}u_new, buffer, sel=None):"
        doc = [
            '"""Interior bulk, uniform work per DOF (paper Sec. III-D): the boundary',
            "faces' part is ``finish_step``'s.  ``sel``: the rows touched (a band",
            "rank's; ``None``, all).  ``buffer(name, shape)``: the workspace (the",
            'device\'s, or the host state\'s when the step degrades); the rest, ``state``\'s."""',
        ]
        buffer, ncells, loop = "buffer", "NCELLS", "interior"
    else:
        head = "def compute_rhs(state, u, t, rows=None):"
        doc = [
            '"""Semi-discrete RHS du/dt: volume sources + surface divergence —',
            "returned, or under forward Euler stepped in place, ``u += dt * rhs``, then",
            "1 if the sweep proved ``u`` finite (a row reads the unknown only through",
            "itself; the boundary values are evaluated from the pre-step ``u`` first).",
            "",
            "``rows`` restricts the sweep to those component rows (a rank's owned",
            'bands); the other rows are left untouched."""',
        ]
        buffer, ncells, loop = "state.buffer", "geom.ncells", "all"
    body = [*doc, "geom = state.geom", "dt = state.dt",
            *(["rows = sel"] if device else bind_known(emitter, surface.reads | volume.reads))]
    read = ("state.tables(folded_tables, 'interior', divergence=True)" if folded else
            f"state.tables(invariant_tables, {'interior' if device else 'all'!r})")
    if tables:
        body.append(f"[{tables}] = {read}")
    if two_sided:
        body.append(f"faces = geom.face_loop({loop!r})")
    for name in emitter.function_coefficients():  # none on the device
        body.append(f"# function coefficient {name!r} evaluated on centres")
        for tag, points in (("", "cell_center"), ("_face", "center")):
            if tag == "" or f"fcoef_{name}{tag}" in surface.reads | volume.reads:
                body += [f"fcoef_{name}{tag} = state.buffer('fcoef_{name}{tag}', "
                         f"geom.{points}.shape[:1])",
                         f"fcoef_{name}{tag}[...] = eval_fcoef_{name}(geom.{points}, t)"]
    if not (folded or device):
        body += [
            "",
            "# FLUX overrides, then the ghost values formed over the owner values",
            "# of the boundary faces, once per evaluation (user callbacks execute",
            "# on the CPU)",
            "ghost = u.take(geom.bowner, axis=1, mode='clip',",
            "               out=state.buffer('ghost', (NCOMP, len(geom.bowner))))",
        ]
        if form.surface_terms:
            body.append("overrides = state.bset.flux_overrides(ghost, t, dt, state.extra)")
        body.append("state.bset.ghost_values(ghost, t, dt, state.extra, ghost)")
    elif device and two_sided:
        body.append("ghost, overrides = None, ()  # the interior faces alone")
    sweep = ("slice(None) if rows is None else rows", "NCOMP if rows is None else len(rows)",
             "len(faces.side1)")
    sides = ("geom.gather_sides(u, ghost, rows)" if not device else
             "[(u if rows is None else u[rows]).take(side, axis=1) "
             "for side in (faces.side1, faces.side2)]")
    body += _definitions(surface, volume, tile.operands, buffer, ncells, sweep, sides)
    if folded and not device:
        body += [
            "",
            "# the boundary faces' part, from their owner values, once per",
            "# evaluation (user callbacks execute on the CPU)",
            "bcells = geom.bcells",
            "u_bdry = state.buffer('u_bdry', (NCOMP, len(geom.bowner)))",
            "bdry = compute_boundary_contribution(",
            "    state, u.take(geom.bowner, axis=1, out=u_bdry, mode='clip'), t)",
        ]
    if not inplace:
        body.append("rhs = np.empty((NCOMP, geom.ncells))")
    size = (f"{tile.folds + 1} * {ncells}" if tile.shape == "cells" else
            f"len(faces.side1) + 2 * {ncells}")
    places = (["None", "None", "None"] if device else
              ["bcells" if folded else "None", "bdry" if folded else "None",
               "state.owned_cells" if owned_columns else "None"])
    reduced = "()" if device or not inplace else "state.reduced"
    body += ["", *(f"# RHS surface: {t}" for t in form.surface_terms),
             *(f"# RHS volume: {t}" for t in form.volume_terms)]
    scalars, rest = ", ".join(["dt", *tile.scalars]), ", ".join([*places, reduced, *tile.operands])
    body += ["# the sweep, in C (``solver.tile.text``): one foreign call over the rows",
             f"{'return ' * inplace}TILE(state.plans, ({scalars},), rows, u, "
             f"{'u_new' if device else 'u' if inplace else 'rhs'},",
             f"            {buffer}('tile', ({size},)), {rest})"]
    if not inplace:
        body.append("return rhs")
    if folded or device:
        lines += _boundary_part(emitter, surface, invariant, tile.boundary)
    lines += [head, *("    " + ln if ln else ln for ln in body)]
    return lines, tile


def _count_flops(term: Expr) -> int:
    """Static FLOP count per produced value of one integrand."""
    flops = 0
    for node in preorder(term):
        if isinstance(node, Add):
            flops += len(node.args) - 1
        elif isinstance(node, Mul):
            flops += len(node.args) - 1
        elif isinstance(node, Pow):
            if isinstance(node.exponent, Num) and node.exponent.value == -1:
                flops += 1  # division
            else:
                flops += 8  # general pow
        elif isinstance(node, Cmp):
            flops += 1
        elif isinstance(node, Conditional):
            flops += 1  # the select
        elif isinstance(node, Reconstruction):
            flops += 35  # gradients, offsets, limiter, select
    return flops


__all__ = [
    "ExprEmitter",
    "EmittedExpr",
    "Hoisted",
    "EULER",
    "Upwind",
    "emit_interior",
    "hoisted_lines",
]
