"""Expression-to-NumPy source emission.

Translates classified symbolic terms into Python/NumPy expression strings
for the generated solvers, together with static work estimates (FLOPs and
bytes per value) that feed the simulated GPU's roofline timing.

Naming conventions in generated code (all bound on the ``state`` object or
as locals prepared by the generated function):

================  ==========================================================
``u``             unknown, ``(ncomp, ncells)``
``u1``, ``u2``    owner/neighbour face values of the rows in ``sel``,
                  ``(nsel, nfaces)`` — one row tile's gathers
                  (:func:`emit_interior`)
``us``            the unknown's rows of one tile, ``(nsel, ncells)``
``f<i>``/``c<i>`` face-/cell-shaped scratch registers of one tile (``d<i>``:
                  cell-shaped, of a surface statement folded through the
                  divergence) and ``s<i>`` of one sweep: views of
                  preallocated pools, written through ``out=``
                  (:class:`_Registers`)
``sel``           component-row selector (an index array or a slice): a
                  block from ``assemblyLoops``, or one tile of it
``normal_x`` ...  face normal components, ``(nfaces,)``
``coef_<c>``      scalar coefficient (float) or per-component vector
``cmap_<v>``      component map of a known variable onto the unknown's
                  component axis, ``(ncomp,)`` int
``var_<v>``       known variable values ``(ncomp_v, ncells)``
``fcoef_<c>``     function coefficient evaluated on cell centres /
                  ``fcoef_<c>_face`` on face centres
================  ==========================================================
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.codegen import ctile
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

#: math functions usable inside equation terms — the source-string view of
#: the unified :mod:`repro.symbolic.functions` registry (shared with the
#: interpreter's ``DEFAULT_FUNCTIONS``)
_MATH_FUNCS = FUNCTION_CODES
_UFUNCS = {"+": "np.add", "*": "np.multiply"}


def _join(*kinds: str) -> str:
    """Shape of an elementwise result (see :meth:`ExprEmitter._kind`)."""
    shaped = set(kinds) - {"0"}
    return shaped.pop() if len(shaped) == 1 else "t" if shaped else "0"


class Hoisted(NamedTuple):
    """A sub-expression evaluated ahead of the tiles, over the indices it
    depends on: with ``sel = trep_<rows>`` (one component per row) ``lines``
    run, then ``name = code``; a tile reads :meth:`ref`."""

    name: str
    code: str
    rows: str
    lines: tuple[str, ...] = ()

    def ref(self, scratch: str = "None") -> str:
        """The tile's rows of the table, by the tile plan's selector — views
        where they can be, gathered into ``scratch`` where not
        (:func:`repro.fvm.kernels.rows_of`)."""
        return f"kernels.rows_of({self.name}, rows_{self.rows}, {scratch})"


class _Registers:
    """Scratch registers of one statement.  With an instance live the walker
    writes every tile-shaped intermediate as a line ``np.op(a, b, out=r)``
    over names ``<prefix>0..<prefix>(count-1)`` the target binds to
    preallocated arrays of the tile's shape, instead of leaving it to a
    fresh temporary of the expression; ``owner`` maps the code of a value
    to the register it may be overwritten in."""

    def __init__(self, prefix: str, lines: list[str]):
        self.prefix, self.lines, self.count = prefix, lines, 0
        self.free: list[str] = []
        self.owner: dict[str, str] = {}

    def take(self) -> str:
        if not self.free:
            self.count += 1
            return f"{self.prefix}{self.count - 1}"
        return self.free.pop()

    def release(self, *codes: str) -> None:
        self.free += [self.owner.pop(c) for c in codes if c in self.owner]

    def emit(self, template: str, *operands: str) -> str:
        """One line ``template.format(register)`` consuming ``operands``,
        in place in the first of them that owns a register."""
        owned = [self.owner.pop(c) for c in operands if c in self.owner]
        self.free += owned[1:]
        reg = owned[0] if owned else self.take()
        self.lines.append(template.format(reg))
        self.owner[reg] = reg
        return reg


class Upwind(NamedTuple):
    """The select between the two face sides of the unknown a statement
    reads as ``uw``: the index subspace ``rows`` its tabled condition
    depends on, the ``select`` between ``u1`` and ``u2``, and — if that
    takes the owner side where the condition holds — the condition's table
    (``owner_where``: the owner side can be copied over the other one)."""

    rows: str
    select: str
    owner_where: Hoisted | None


@dataclass
class EmittedExpr:
    """One emitted expression and its work estimate (per produced value).

    ``code`` may read sub-expressions moved out of it, which the target
    evaluates first: ``tables`` once per bound geometry (their array leaves
    are ``table_reads``; ``reads`` are those of everything else), ``sweep``
    once per sweep, ``prelude`` (plain assignments) in every tile.  With
    ``upwind`` (:class:`Upwind`) it reads the upwinded side as ``uw``, the
    select between ``u1`` and ``u2``; ``sides`` says whether a side is also
    read on its own.  ``prelude`` and ``code`` write ``registers`` tile-shaped
    scratch arrays (``f0..`` surface, ``c0..`` volume), the lines of ``sweep``
    ``sweep_registers`` more (``s0..``).  ``folded`` is the same surface
    statement carried through the divergence, when it is linear in ``uw``
    (:meth:`ExprEmitter._fold_divergence`): cell-shaped code over ``us`` and
    ``registers`` cell registers ``d0..``, its ``tables`` the ones a tile
    then reads.
    """

    code: str
    flops: int
    reads: set[str] = field(default_factory=set)
    prelude: list[str] = field(default_factory=list)
    tables: list[Hoisted] = field(default_factory=list)
    table_reads: set[str] = field(default_factory=set)
    sweep: list[Hoisted] = field(default_factory=list)
    upwind: Upwind | None = None
    sides: bool = False
    registers: int = 0
    sweep_registers: int = 0
    folded: "EmittedExpr | None" = None

    @property
    def bytes_per_value(self) -> int:
        # one 8-byte read per distinct array leaf + the 8-byte result write
        return 8 * (len(self.reads | self.table_reads) + 1)


class ExprEmitter:
    """Emits volume- and surface-context NumPy code for one problem."""

    def __init__(self, problem: "Problem", form: "ClassifiedForm", var_mode: str = "state"):
        """``var_mode``: how known-variable reads are emitted — ``'state'``
        (through the live ``state.fields`` dict; CPU targets) or ``'local'``
        (as plain ``var_<name>`` array names; the GPU kernel receives device
        buffers under those names as arguments)."""
        if var_mode not in ("state", "local"):
            raise CodegenError(f"unknown var_mode {var_mode!r}")
        self.problem = problem
        self.form = form
        self.unknown = form.unknown
        self.entities = problem.entities
        self.space = self.unknown.space
        self.var_mode = var_mode
        # live only inside emit_sum(cse=True): (context, node) -> the code
        # reading the hoisted value; ``_out`` collects the definitions
        self._hoisted: dict | None = None
        self._out = EmittedExpr("", 0)
        self._regs: _Registers | None = None  # live: intermediates go to scratch
        self._sweep_regs: _Registers | None = None
        self._within: tuple | None = None  # scope of the sweep definition being built
        #: index subspaces of the tables emitted so far, by ``tmap_`` suffix
        self.row_spaces: dict[str, tuple[str, ...]] = {}
        #: per table and sweep definition: its shape in a tile (:meth:`_kind`)
        #: and whether it is a comparison's (the C tile reads it so)
        self.shapes: dict[str, tuple[str, bool]] = {}

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
        becomes the single side ``uw``.  What is left in the tile is emitted
        as register statements (:class:`_Registers`): no arithmetic
        intermediate is a fresh array.  One rewrite does change rounding: a
        surface statement linear in ``uw`` is also emitted folded through
        the divergence (``folded``, :meth:`_fold_divergence`).
        """
        if not terms:
            return EmittedExpr("0.0", 0)
        self._tag = context[0]  # names: tab_s0, swp_v1, cse_s0
        self._hoisted = {} if cse else None
        self._out = out = EmittedExpr("", 0)
        if cse:
            self._regs = _Registers("f" if context == "surface" else "c", out.prelude)
            self._sweep_regs = _Registers("s", [])
        try:
            signed, minus = self._signed(terms)
            parts = [self._emit(t, context) for t in signed]
            out.code = (self._fold("+", [(p.code, self._kind(t)) for p, t in zip(parts, signed)],
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
        code = self._walk(term, context, reads)
        return EmittedExpr(code, flops, reads)

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
                reads: set[str]) -> str | Hoisted:
        """Emit and record a hoisted definition.  Hoisting is not re-entered,
        except that a sweep definition reads an earlier one over the same
        rows by name (``Io/beta`` reads ``1/beta``); a table's code runs once
        and stays a plain expression, a volume statement's sweep definition
        gets registers of its own."""
        kind, rows = scope
        out, regs = self._out, self._regs
        saved = self._hoisted, self._within, regs, self._sweep_regs and self._sweep_regs.lines
        lines: list[str] = []
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
            if self._regs is not None:
                self._regs.owner.pop(code, None)  # pinned: the definition lives there
        finally:
            self._hoisted, self._within, self._regs, lines_before = saved
            if self._sweep_regs is not None:
                self._sweep_regs.lines = lines_before
        if kind == "tile":
            name = f"cse_{self._tag}{sum(ln.startswith('cse_') for ln in out.prelude)}"
            out.prelude.append(f"{name} = {code}")
            return name
        suffix = "_".join(rows) or "none"
        self.row_spaces[suffix] = rows
        prefix, defs = ("tab", out.tables) if kind == "bind" else ("swp", out.sweep)
        defs.append(Hoisted(f"{prefix}_{self._tag}{len(defs)}", code, suffix, tuple(lines)))
        self.shapes[defs[-1].name] = (self._kind(node), isinstance(node, Cmp))
        return defs[-1]

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

    def _fold(self, op: str, items: list[tuple[str, str]], minus=()) -> str:
        """``a op b op c`` over ``(code, kind)`` operands, evaluated left to
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
            return "(" + f" {op} ".join(code for code, _ in items) + ")"
        inline, kind, acc = [items[0][0]], items[0][1], None
        for i, (code, k) in enumerate(items[1:], 1):
            kind = _join(kind, k)
            if kind != "t":
                inline.append(code)
                continue
            if acc is None:
                acc = inline[0] if len(inline) == 1 else "(" + f" {op} ".join(inline) + ")"
            ufunc = "np.subtract" if i in minus else _UFUNCS[op]
            acc = regs.emit(f"{ufunc}({acc}, {code}, out={{}})", acc, code)
        return acc or "(" + f" {op} ".join(inline) + ")"

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

    def _inline(self, kind: str, expr: str, *operands: str) -> str:
        """A compound with no ``out=`` form: the expression itself, or — a
        tile with registers live — copied into a register (its value is a
        fresh array, and may be less than a tile: a select between a row
        and a scalar on one table row) the operands' registers are freed
        for."""
        if self._regs is None or kind != "t":
            return expr
        self._regs.release(*operands)
        return self._regs.emit(f"{{}}[...] = {expr}")

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
            return found if isinstance(found, Hoisted) and found.rows == rows else None

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
            used += [found, mask, *(hoisted.get(("surface", a)) for a in faces)]
            folds.append(Hoisted(
                f"fold_s{n}",
                f"kernels.fold_upwind(divergence, {found.name}, upw, NCELLS)", rows))
        folded = EmittedExpr("", 0)
        regs = self._regs = _Registers("d", folded.prelude)
        regs.free.append("acc")  # the first term is formed where the tile sums
        self._hoisted = None  # the flat factors are columns: inline, as written
        parts = []
        for (flat, _, _), fold in zip(products, folds):
            div = regs.emit(
                f"kernels.apply_folded({fold.name}, us, runs_{rows}, {{}}, cw)")
            parts.append((self._fold(
                "*", [(self._walk(a, "surface", set()), self._kind(a)) for a in flat]
                + [(div, "t")]), "t"))
        folded.code = self._fold("+", parts)
        folded.registers = regs.count
        # a tile reads the folds; the face tables went into them
        folded.tables = [h for h in out.tables if h not in used] + folds
        out.folded = folded

    def _walk_select(self, node: Conditional, ctx: str, reads: set[str]) -> str:
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
        table = next((h for h in out.tables if h.ref() == cond), None)
        pair = [n.side for n in (then[i], other[i])
                if isinstance(n, SideValue) and self._is_unknown(n.expr)]
        if table and ctx == "surface" and sorted(pair) == [1, 2]:
            # a tabled condition choosing between the two sides of the
            # unknown *is* an index choice: which column to gather
            (a, ca), (b, cb) = [(f"u{s}", ("owner", "other")[s - 1]) for s in pair]
            upwind = Upwind(table.rows, f"np.where({cond}, {a}, {b})",
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
            factors[i] = self._inline(_join(*kinds), f"np.where({cond}, {a}, {b})", cond, a, b)
        return self._fold("*", [(f, _join(*kinds) if j == i else self._kind(a))
                                for j, (f, a) in enumerate(zip(factors, then))])

    def _walk(self, node: Expr, ctx: str, reads: set[str], hoist: bool = True) -> str:
        hoisted = self._hoisted
        scope = self._hoist_scope(node) if hoist and hoisted is not None else None
        if self._within not in (None, scope):
            scope = None  # inside a definition: only its own kind and rows
        if scope is not None:
            key = (ctx, node)
            if key not in hoisted:
                hoisted[key] = self._define(scope, node, ctx, reads)
            table, regs = hoisted[key], self._regs
            if isinstance(table, str):
                return table
            if self._within is not None:
                return table.name
            if regs is None or isinstance(node, Cmp) or self._kind(node) != "t":
                return table.ref()
            # each read of a float table may need scratch for its rows
            scratch = regs.take()
            regs.owner[table.ref(scratch)] = scratch
            return table.ref(scratch)
        if isinstance(node, Num):
            return repr(float(node.value))
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
            return f"{name}[None, :]"
        if isinstance(node, FaceDistance):
            if ctx != "surface":
                raise CodegenError("face distances only exist in surface terms")
            reads.add("face_dist")
            return "face_dist[None, :]"
        if isinstance(node, (Add, Mul)):
            args, minus = self._signed(node.args) if isinstance(node, Add) else (node.args, ())
            return self._fold("+" if isinstance(node, Add) else "*",
                              [(self._walk(a, ctx, reads), self._kind(a)) for a in args], minus)
        if isinstance(node, Pow):
            base = self._walk(node.base, ctx, reads)
            if isinstance(node.base, Num) and node.base.value < 0:
                base = f"({base})"  # ``-1.0 ** x`` would parse as ``-(1.0 ** x)``
            if isinstance(node.exponent, Num):
                e = node.exponent.value
                if e != -1:
                    return self._inline(self._kind(node), f"({base} ** {repr(float(e))})", base)
                if self._regs is None or self._kind(node) != "t":
                    return f"(1.0 / {base})"
                return self._regs.emit(f"np.divide(1.0, {base}, out={{}})", base)
            exponent = self._walk(node.exponent, ctx, reads)
            return self._inline(self._kind(node), f"({base} ** {exponent})", base, exponent)
        if isinstance(node, Cmp):
            lhs = self._walk(node.lhs, ctx, reads)
            rhs = self._walk(node.rhs, ctx, reads)
            return self._inline(self._kind(node), f"({lhs} {node.op} {rhs})", lhs, rhs)
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
            return self._inline("t", f"kernels.muscl_flux(geom, {vn}, u[sel], ghost[sel])", vn)
        if isinstance(node, Call):
            if node.func in _MATH_FUNCS:
                args = [self._walk(a, ctx, reads) for a in node.args]
                return self._inline(
                    self._kind(node), f"{_MATH_FUNCS[node.func]}({', '.join(args)})", *args)
            raise CodegenError(
                f"callback {node.func!r} cannot appear inside an equation term; "
                "use a function coefficient or a boundary/step callback instead"
            )
        raise CodegenError(f"cannot emit node type {type(node).__name__}: {node}")

    # -- leaves -----------------------------------------------------------------
    def _emit_sym(self, node: Sym, ctx: str, reads: set[str]) -> str:
        name = node.name
        if name.startswith("_") and name.endswith("_1"):
            base = name[1:-2]
            kind = self.entities.kind_of(base)
            if kind == "variable":
                return self._emit_variable(base, ctx, side=None, reads=reads)
            if kind == "coefficient":
                return self._emit_coefficient(base, ctx, reads)
        if name == "dt":
            return "dt"
        raise CodegenError(f"cannot emit symbol {name!r}")

    def _emit_indexed(
        self, node: Indexed, ctx: str, side: int | None, reads: set[str]
    ) -> str:
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
    ) -> str:
        if name == self.unknown.name:
            if ctx == "surface":
                raise CodegenError(
                    f"unknown {name!r} in a surface term must be wrapped in a "
                    "flux reconstruction (upwind/average)"
                )
            reads.add("u")
            return "u[sel]" if self._regs is None else "us"
        # known variable: read through the live rank/serial state (each rank
        # owns its arrays) or as a direct array argument (GPU kernels), and
        # map its components onto the unknown's axis
        var = self.entities.variables[name]
        self._check_subspace(name, var.index_names())
        arr = (
            f"state.fields['{name}'].data" if self.var_mode == "state" else f"var_{name}"
        )
        cmap = f"cmap_{name}"
        reads.add(f"var_{name}")
        if ctx == "volume" and self._regs is not None:
            return self._regs.emit(
                f"{arr}.take({cmap}[sel], axis=0, out={{}}, mode='clip')")
        if ctx == "volume":
            return f"{arr}[{cmap}[sel], :]"
        # surface context: known variables are evaluated on the owner side
        return f"{arr}[{cmap}[sel], :][:, owner]"

    def _emit_coefficient(self, name: str, ctx: str, reads: set[str]) -> str:
        coef = self.entities.coefficients[name]
        if coef.is_function:
            tag = f"fcoef_{name}" if ctx == "volume" else f"fcoef_{name}_face"
            reads.add(tag)
            return f"{tag}[None, :]"
        if not coef.indices:
            return f"coef_{name}"  # plain float, no array read
        self._check_subspace(name, coef.index_names())
        arr = f"coef_{name}"
        reads.add(arr)
        return f"{arr}[sel][:, None]"

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
        component of each row), the maps together as ``TMAPS``.  Call it
        after emitting.
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
        # in the order a tile unpacks its reads (:func:`emit_interior`)
        out["TMAPS"] = tuple(out[f"tmap_{suffix}"] for suffix in self.row_spaces)
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
        """Known (non-unknown) variables the equation reads — the generated
        namespace must bind their live data arrays as ``var_<name>``."""
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


def hoisted_lines(defs: list[Hoisted], registers: int = 0) -> list[str]:
    """Assignments evaluating ``defs``, each over its own rows; the lines of
    definitions that use them find the ``registers`` names ``s<i>`` bound to
    the leading rows of ``sweep_pool``."""
    lines: list[str] = []
    rows = None
    for h in defs:
        if h.rows != rows:
            rows = h.rows
            lines.append(f"sel = trep_{rows}  # one component per row")
            if registers:
                names = ", ".join(f"s{i}" for i in range(registers))
                lines.append(f"{names}, = sweep_pool[:, :len(sel)]")
        lines += [*h.lines, f"{h.name} = {h.code}"]
    return lines


def _function(head: str, body: list[str]) -> list[str]:
    return [head] + ["    " + ln if ln else ln for ln in body] + ["", ""]


def _invariant_tables(surface: EmittedExpr, volume: EmittedExpr,
                      packed: bool = False) -> tuple[list[str], str, str]:
    """Source of ``invariant_tables`` (and ``folded_tables``, its operators
    ``packed`` for a C tile), the names of the list ``invariant_tables``
    returns and of the one a tile reads."""
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
         "their tables folded through their ``divergence`` (its gather form) into",
         'one cell-centric operator per term, and the tables with no face axis."""',
         f"[{names}] = invariant_tables(normal, face_dist, owner, other)",
         *[f"{h.name} = {f'ctile.pack({h.code})' if packed else h.code}" for h in folds],
         f"return [{', '.join(h.name for h in read)}]"])
    return setup, names, ", ".join(h.name for h in read)


def _boundary_part(form: "ClassifiedForm", surface: EmittedExpr, tables: str,
                   tiles: str) -> list[str]:
    """Source of ``compute_boundary_contribution(state, u_bdry, t)``: the
    face-centric surface statement over the boundary faces alone, in row
    tiles, through the divergence restricted to them — the part of the step
    every target leaves to the CPU and its user callbacks (with only the
    upwinded side read, preceded by ``boundary_tables``)."""
    body = [
        '"""Boundary part of the RHS, from the owner values of the boundary',
        "faces, ``u[:, geom.bowner]`` — all it reads of the unknown (on a device",
        "target it runs on the CPU, concurrently with the interior kernel: paper",
        "Fig. 6).  Returns du/dt|_boundary in the boundary cells' columns,",
        '``(NCOMP, len(geom.bcells))``."""',
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
    body.append("bfaces = geom.bfaces")
    if in_place:  # the same tables, over the boundary faces' geometry, and the mask
        setup = _function("def boundary_tables(*geometry):", [
            '"""``invariant_tables`` on the boundary faces, and where the flow enters."""',
            f"[{tables}] = invariant_tables(*geometry)",
            f"return [{tables}, ~{upwind.owner_where.name}[tmap_{upwind.rows}]]"])
        body.append(f"[{tables}, inflow] = state.tables(boundary_tables, bfaces)")
    elif tables:  # the same tables, over the boundary faces' geometry
        body.append(f"[{tables}] = state.tables(invariant_tables, bfaces)")
    body += hoisted_lines(surface.sweep)
    for axis, name in _AXIS_NAMES.items():
        if name in surface.reads:
            body.append(f"{name} = geom.normal[bfaces, {axis - 1}]")
    if "face_dist" in surface.reads:
        body.append("face_dist = geom.face_dist[bfaces]")
    registers = [f"f{i}" for i in range(surface.registers)]
    body += [
        "# FLUX-type callbacks, evaluated from the owner values as they came",
        "overrides = [(geom.bface_slot[faces], values) for faces, values in",
        "             state.bset.flux_overrides(None, t, dt, state.extra, owner_values=u_bdry)]",
    ]
    if in_place:
        # only ``uw`` is read: the owner value, and where the flow enters the
        # ghost value — formed in place
        body += [
            "# the upwinded side, in place: ghost values (boundary conditions,",
            "# user callbacks) over the owner values where the flow enters",
            "state.bset.ghost_values(None, t, dt, state.extra, out=u_bdry, owner_values=u_bdry,",
            "                        where=inflow)",
        ]
        tile, spent = ["uw = u_bdry[sel]"], "uw"
    else:
        body += [
            "# ghost values from the boundary conditions (user callbacks)",
            "ghost = state.bset.ghost_values(None, t, dt, state.extra, owner_values=u_bdry,",
            "                                out=state.buffer('ghost', u_bdry.shape))",
        ]
        tile, spent = ["u1, u2 = u_bdry[sel], ghost[sel]"], "u2"
        if upwind is not None:  # the sides are already gathered: select
            tile.append(f"uw = {upwind.select}")
    body.append("height = kernels.tile_rows(len(bfaces), NCOMP)")
    if registers:
        body.append(f"face_pool = state.buffer('boundary_faces', "
                    f"({len(registers)}, height, len(bfaces)))")
        tile.append(f"{', '.join(registers)}, = face_pool[:, :n]")
    tile += [f"# face flux: {t}" for t in map(str, form.surface_terms)]
    tile += surface.prelude
    tile.append(f"flux = {surface.code}")
    if surface.code not in registers:  # maybe less than an array of its own
        tile.append(f"flux = np.broadcast_to(flux, {spent}.shape).copy()")
    tile += [
        "for slots, values in overrides:  # they override their faces",
        "    flux[:, slots] = values[sel]",
        f"geom.boundary_divergence(flux, du_bdry[sel], work={spent})  # {spent}: spent",
    ]
    body += [f"for {tiles} in kernels.tile_plan(state.plans, slice(None), NCOMP, height, TMAPS):",
             *("    " + ln for ln in tile), "return du_bdry"]
    return setup + _function(head, body)


def _bind(names: list[str], pool: str) -> str:
    """``a, b, = pool[:, :n]``: the tile's rows of every array of a pool."""
    return f"{', '.join(names)}, = {pool}[:, :n]"


#: the steppers whose sweep stores the explicit update itself
EULER = ("euler", "euler_explicit")

#: What ends a device-placed interior's step, wherever the plan put it.
FINISH_STEP = [
    "def finish_step(u, du_bdry, u_bdry, reduced, buffer, sel=slice(None), comps=None):",
    '    """What ends a step once the interior update ``u`` and the boundary',
    "    part exist — one body, launched on the device buffers or called on",
    "    the host arrays, wherever the plan put it.  Adds the boundary part",
    "    into the boundary cells' columns (``u + (du_bdry * dt)``, that",
    "    association; every other column is left alone, an exact -0.0",
    "    included), runs the post-step callbacks' declared reductions into",
    "    ``reduced``, and gathers the owner values the next step's boundary",
    "    callbacks read — after the column update, so they are those of the",
    "    finished step.  ``sel``/``comps`` restrict a band-partitioned rank",
    '    to its own rows."""',
    "    cols = buffer('bdry_cols', du_bdry.shape)",
    "    u.take(BCELLS, axis=1, out=cols, mode='clip')",
    "    np.add(cols, np.multiply(du_bdry, DT, out=du_bdry), out=cols)",
    "    u[sel if isinstance(sel, slice) else sel[:, None], BCELLS] = cols[sel]",
    "    for reduce, out in zip(REDUCTIONS, reduced):",
    "        reduce(u, comps, out, buffer('reduce_work', out.shape))",
    "    u.take(BOWNER, axis=1, out=u_bdry, mode='clip')",
]


def emit_interior(emitter: ExprEmitter, device: bool, *, stepper: str = "euler",
                  owned_columns: bool = False) -> list[str]:
    """The finite-volume interior of every target, for where the step's
    placement put ``interior_update``.

    On the host it is a call on the host arrays, ``compute_rhs(state, u, t,
    rows=None)`` (``rows``: a band rank's).  Under forward Euler the sweep
    stores the update itself, ``u[sel] + dt * rhs`` (a cell rank,
    ``owned_columns``, only in the columns it owns); other steppers get the
    RHS back.  ``finish_step`` is on the host with it, folded into the tile:
    the boundary part is evaluated once before the sweep and each tile adds
    its rows of it into the boundary cells' columns.  On the ``device`` it
    is a launch over the interior faces into ``u_new``,
    ``interior_kernel(u, var_*, u_new, buffer, sel)``, and the step places
    :data:`FINISH_STEP`.

    A tile of component rows: gather ``u1``/``u2`` → surface statement →
    FLUX overrides (host) → divergence → volume statement → store, or the
    statement folded through the divergence
    (:meth:`ExprEmitter._fold_divergence`), straight from ``us``.  Nothing in
    a tile is a fresh array: statements write registers
    (:class:`_Registers`), the tile's rows of pools taken once per sweep from
    ``buffer(name, shape)``.  Every operation is elementwise per row and a
    statement reads the unknown only through the tile's own rows (RPR141 on
    anything else), so results do not depend on the tiling and the update is
    added straight into where the rows live (``us``, ``u_new[sel]``) when
    ``sel`` is a slice.

    A folded tile whose every operation is exact is not swept in NumPy: it
    is printed as one C function (:func:`repro.codegen.ctile.lower`) and the
    sweep is one call of it, ``TILE(...)``.  Returns the source lines and
    that printed tile (``None``: the NumPy tile).
    """
    form = emitter.form
    surface = emitter.emit_sum(form.surface_terms, "surface")
    volume = emitter.emit_sum(form.volume_terms, "volume")
    folded = surface.folded
    # a folded tile whose every operation is exact is one C function
    tile_c = folded and ctile.lower(folded, volume, emitter.shapes, {
        h.name: int(h.code[1:]) for h in volume.sweep if re.fullmatch(r"s\d+", h.code)})
    setup, invariant, tables = _invariant_tables(surface, volume, packed=bool(tile_c))
    two_sided = form.surface_terms and not folded
    inplace = device or stepper in EULER
    lines = setup
    if device:
        known = ", ".join(["u", *(f"var_{n}" for n in emitter.referenced_known_variables())])
        head = f"def interior_kernel({known}, u_new, buffer, sel=slice(None)):"
        body = [
            '"""Interior bulk: uniform work, no thread divergence between DOFs',
            "(paper Sec. III-D).  Boundary faces contribute zero here;",
            "``finish_step`` adds their part to what this wrote.  ``sel`` restricts",
            "the component rows (multi-device band partitioning launches one",
            "kernel per rank over its own bands); only those rows are touched.",
            "``buffer(name, shape)`` hands out the workspace the tiles reuse",
            '(the device\'s, or the host state\'s when the step degrades)."""',
            "rows = sel",
            *["owner = OWNER_INT"] * (not tile_c),
        ]
        buffer, nfaces, ncells, normal, face_dist = (
            "buffer", "len(owner)", "NCELLS", "NORMALS_INT", "FACEDIST_INT")
        gather = ["# owner/neighbour gathers restricted to interior faces",
                  "u1 = np.take(us, owner, axis=1, out=fu, mode='clip')",
                  "u2 = np.take(us, NEIGH_INT, axis=1, out=fv, mode='clip')"]
        divergence = "kernels.slot_divergence(DIV_INT, flux, acc, cw)"
        dt, into, store = "DT", "u_new[sel]", "u_new[sel] = acc"
        read, scratch_of = "INT_TABLES", "the workspace handed in"
        plan, order = "TILE_PLANS, rows, NCOMP, height, TMAPS", "one block per launch"
        geometry = "NORMALS_INT, FACEDIST_INT, OWNER_INT, NEIGH_INT"
        if tables:
            lines += ["# over the interior faces, evaluated when the source is bound",
                      f"INT_TABLES = folded_tables({geometry}, DIV_INT)" if folded
                      else f"INT_TABLES = invariant_tables({geometry})"]
        lines += ["TILE_PLANS = {}  # " + ("the pointers of the arrays a launch was given"
                                          if tile_c else "per row selection a launch was given"),
                  "", ""]
    else:
        head = "def compute_rhs(state, u, t, rows=None):"
        body = [
            '"""Semi-discrete RHS du/dt: volume sources + surface divergence —',
            "returned, or under forward Euler stepped in place, ``u += dt * rhs`` (a",
            "tile reads the unknown only through its own rows, and the boundary",
            "values are evaluated from the pre-step ``u`` before the first store).",
            "",
            "``rows`` restricts the sweep to those component rows (a rank's owned",
            'bands); the other rows are left untouched."""',
            "geom = state.geom",
            "dt = state.dt",
            *["owner = geom.owner"] * bool(two_sided),
        ]
        buffer, nfaces, ncells, normal, face_dist = (
            "state.buffer", "geom.nfaces", "geom.ncells", "geom.normal", "geom.face_dist")
        gather = ["u1, u2 = geom.gather_sides(u, ghost, sel, out=(fu, fv))"]
        divergence = "geom.surface_divergence(flux, out=acc, work=cw)"
        dt = "dt" if inplace else None
        into = None if owned_columns else "us"
        store = ("rhs[sel] = acc" if not inplace else
                 "kernels.store_columns(u, sel, state.owned_cells, acc, out=cw)"
                 if owned_columns else "u[sel] = acc")
        read = ("state.tables(folded_tables, geom.interior_faces, divergence=True)"
                if folded else "state.tables(invariant_tables)")
        scratch_of = "owned by the state"
        plan = "state.plans, rows, NCOMP, height, TMAPS, state.row_blocks"
        order = ("blocks in assemblyLoops order ("
                 + ", ".join(emitter.problem.config.assembly_order) + ")")

    # ---- one tile of rows -----------------------------------------------------
    nsweep = volume.sweep_registers
    face_regs = [f"f{i}" for i in range(surface.registers)]
    # gather targets, and a tile for a statement that is no register of its
    # own (a bare table, a leaf, a row): the overrides and the divergence
    # need a full one
    face_regs += ["fu", "fv"]
    face_regs += ["fx"] if surface.code not in face_regs else []
    cell_regs = [f"c{i}" for i in range(volume.registers)]
    cell_regs += [f"d{i}" for i in range(folded.registers)] if folded else []
    cell_regs += ["acc", "cw", "cu"]
    scratch = [f"cell_pool = {buffer}('cells', ({len(cell_regs)}, height, {ncells}))"]
    tile = [_bind(cell_regs, "cell_pool"), "us = kernels.rows_of(u, sel, cu)"]
    if two_sided:
        scratch.append(
            f"face_pool = {buffer}('faces', ({len(face_regs)}, height, {nfaces}))")
        tile.append(_bind(face_regs, "face_pool"))
    if nsweep:
        spaces = sorted({f"len(trep_{h.rows})" for h in volume.sweep})
        rows = spaces[0] if len(spaces) == 1 else f"max({', '.join(spaces)})"
        scratch.append(f"sweep_pool = {buffer}('sweep', ({nsweep}, {rows}, {ncells}))")

    def statement(name: str, target: str, expr: EmittedExpr, terms: list[Expr]) -> None:
        tile.extend(f"# RHS {name}: {t}" for t in map(str, terms))
        tile.extend(expr.prelude)
        tile.append(f"{target} = {expr.code}")

    if folded:
        statement("surface, through the divergence", "div", folded, form.surface_terms)
    elif form.surface_terms:
        tile += gather
        if surface.upwind:  # the upwinded side: select from both
            tile.append(f"uw = {surface.upwind.select}")
        statement("surface", "flux", surface, form.surface_terms)
        if "fx" in face_regs:
            tile += ["fx[...] = flux", "flux = fx"]
        if not device:
            tile += [
                "# FLUX-type boundary callbacks override their faces",
                "for faces, values in overrides:",
                "    flux[:, faces] = values[sel]",
            ]
        tile.append(f"div = {divergence}")
    else:
        tile.append("div = 0.0")
    if form.volume_terms:
        statement("volume", "source", volume, form.volume_terms)
    else:
        tile.append("source = 0.0")
    tile.append("np.add(source, div, out=acc)")
    new = "new" if dt is not None and into else "acc"
    if dt is not None:
        tile.append(f"np.multiply(acc, {dt}, out=acc)")
        tile += [f"new = {into} if sel.__class__ is slice else acc"] * (new == "new")
        tile.append(f"np.add(us, acc, out={new})  # explicit update, Eq. (3)")
    if folded and not device:  # finish_step, in the tile
        tile += [f"cols = {new}.take(bcells, axis=1, out=bcols[:n], mode='clip')",
                 "np.add(cols, bdry[sel], out=cols)",
                 f"{new}[:, bcells] = cols"]
    tile += ["if new is acc:", "    " + store] if new == "new" else [store]
    tiles = ", ".join(["sel", "n", *(f"{kind}_{suffix}" for suffix in emitter.row_spaces
                                    for kind in ("rows", "runs"))])

    # ---- the sweep around it --------------------------------------------------
    reads = surface.reads | volume.reads
    if two_sided:
        body += [f"{name} = {normal}[:, {axis - 1}]" for axis, name in _AXIS_NAMES.items()
                 if name in reads]
        body += [f"face_dist = {face_dist}"] * ("face_dist" in reads)
    if tables:
        body.append(f"[{tables}] = {read}")
    for name in emitter.function_coefficients():  # none on the device
        body += [
            f"# function coefficient {name!r} evaluated on centres",
            f"fcoef_{name} = eval_fcoef_{name}(geom.cell_center, t)",
        ]
        if f"fcoef_{name}_face" in reads:
            body.append(f"fcoef_{name}_face = eval_fcoef_{name}(geom.center, t)")
    if tile_c:
        body += [f"# scratch, {scratch_of}", *scratch[1:]]
    else:
        body += [
            f"# scratch, {scratch_of}: nothing below allocates a tile",
            f"height = kernels.tile_rows({nfaces}, NCOMP)",
            *scratch,
        ]
    sweep = hoisted_lines(surface.sweep + volume.sweep, nsweep)
    if sweep:
        body += ["# sub-expressions of known variables, once over their own rows", *sweep]
    if folded and not device:
        body += [
            "",
            "# the boundary faces' part, from their owner values, once per",
            "# evaluation (user callbacks execute on the CPU)",
            "bcells = geom.bcells",
            *["bcols = state.buffer('bdry_cols', (height, len(bcells)))"] * (not tile_c),
            "u_bdry = state.buffer('u_bdry', (NCOMP, len(geom.bowner)))",
            "bdry = compute_boundary_contribution(",
            "    state, u.take(geom.bowner, axis=1, out=u_bdry, mode='clip'), t)",
        ]
        if inplace:
            body.append("np.multiply(bdry, dt, out=bdry)  # u + (du_bdry * dt), as finish_step")
    elif not device:
        body += [
            "",
            "# boundary ghost values and FLUX overrides, once per evaluation",
            "# (user callbacks execute on the CPU)",
            "ghost = state.bset.ghost_values(",
            "    u, t, dt, state.extra, out=state.buffer('ghost', (NCOMP, len(geom.bfaces))))",
        ]
        if form.surface_terms:
            body.append("overrides = state.bset.flux_overrides(u, t, dt, state.extra)")
        if inplace:
            body.append("state.require_private_inputs(u, ghost"
                        f"{', overrides' if form.surface_terms else ''})")
    if not inplace:
        body.append("rhs = np.empty((NCOMP, geom.ncells))")
    if tile_c:
        scalars = ", ".join([dt or "dt", *tile_c.scalars])
        places = (["None", "None", "None"] if device else
                  ["bcells", "bdry", "state.owned_cells" if owned_columns else "None"])
        body += [
            "",
            "# the tile, in C (``solver.tile.text``): one foreign call over the rows",
            f"TILE({'TILE_PLANS' if device else 'state.plans'}, ({scalars},), {inplace}, rows, u, "
            f"{'u_new' if device else 'u' if inplace else 'rhs'},",
            f"     {buffer}('tile', ({tile_c.folds + 1} * {ncells},)), {', '.join(places)},",
            f"     {', '.join(tile_c.operands)})",
        ]
    else:
        body += [
            "",
            f"# cache-sized tiles of rows, {order}: planned once",
            f"for {tiles} in kernels.tile_plan({plan}):",
            *("    " + ln for ln in tile),
        ]
    if not inplace:
        body.append("return rhs")
    if folded or device:
        lines += _boundary_part(form, surface, invariant, tiles)
    lines += [head, *("    " + ln if ln else ln for ln in body)]
    return (lines + ["", "", *FINISH_STEP] if device else lines), tile_c or None


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
    "FINISH_STEP",
    "Upwind",
    "emit_interior",
    "hoisted_lines",
]
