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
                  (:func:`emit_tile_body`)
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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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


@dataclass(frozen=True)
class Hoisted:
    """A sub-expression evaluated ahead of the tiles, over the indices it
    depends on: ``code`` runs with ``sel = trep_<rows>`` (one component per
    row) and a tile reads ``ref``."""

    name: str
    code: str
    rows: str

    @property
    def ref(self) -> str:
        return f"{self.name}[tmap_{self.rows}[sel]]"


@dataclass
class EmittedExpr:
    """One emitted expression and its work estimate (per produced value).

    ``code`` may read sub-expressions moved out of it, which the target
    evaluates first: ``tables`` once per bound geometry (their array leaves
    are ``table_reads``; ``reads`` are those of everything else), ``sweep``
    once per sweep, ``prelude`` (plain assignments) in every tile.  With
    ``upwind = (rows, select)`` it reads the upwinded side as ``uw``: the
    ``select`` between ``u1`` and ``u2``, or — unless a side is also read on
    its own (``sides``) — one gather through the ``upw`` column table with
    the tile's table rows ``tmap_<rows>[sel]``.
    """

    code: str
    flops: int
    reads: set[str] = field(default_factory=set)
    prelude: list[str] = field(default_factory=list)
    tables: list[Hoisted] = field(default_factory=list)
    table_reads: set[str] = field(default_factory=set)
    sweep: list[Hoisted] = field(default_factory=list)
    upwind: tuple[str, str] | None = None
    sides: bool = False

    @property
    def gathers_upwind(self) -> bool:
        return self.upwind is not None and not self.sides

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
        becomes the single gathered side ``uw``.
        """
        if not terms:
            return EmittedExpr("0.0", 0)
        self._tag = context[0]  # names: tab_s0, swp_v1, cse_s0
        self._hoisted = {} if cse else None
        self._out = out = EmittedExpr("", 0)
        try:
            parts = [self._emit(t, context) for t in terms]
        finally:
            self._hoisted = None
        out.code = " + ".join(f"({p.code})" for p in parts)
        out.flops = sum(p.flops for p in parts) + (len(parts) - 1)
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

    def _define(self, scope: tuple[str, tuple[str, ...]], code: str) -> str:
        """Record a hoisted definition; returns the code that reads it."""
        kind, rows = scope
        out = self._out
        if kind == "tile":
            name = f"cse_{self._tag}{len(out.prelude)}"
            out.prelude.append(f"{name} = {code}")
            return name
        suffix = "_".join(rows) or "none"
        self.row_spaces[suffix] = rows
        prefix, defs = ("tab", out.tables) if kind == "bind" else ("swp", out.sweep)
        name = f"{prefix}_{self._tag}{len(defs)}"
        defs.append(Hoisted(name, code, suffix))
        return defs[-1].ref

    def _walk_select(self, node: Conditional, ctx: str, reads: set[str]) -> str:
        """``conditional(c, A*k, B*k)``: select between the factors that
        differ, multiply by the shared ones once, each in its original
        position — per element the same product as selecting between the
        two full products."""
        cond = self._walk(node.cond, ctx, reads)
        then = node.then.args if isinstance(node.then, Mul) else (node.then,)
        other = node.otherwise.args if isinstance(node.otherwise, Mul) else (node.otherwise,)
        differ = [i for i, (a, b) in enumerate(zip(then, other)) if a != b]
        if len(then) != len(other) or len(differ) != 1:
            then, other, differ = (node.then,), (node.otherwise,), [0]
        (i,) = differ
        factors = [None if j == i else self._walk(a, ctx, reads)
                   for j, a in enumerate(then)]
        out = self._out
        table = next((h for h in out.tables if h.ref == cond), None)
        pair = [n.side for n in (then[i], other[i])
                if isinstance(n, SideValue) and self._is_unknown(n.expr)]
        if table and ctx == "surface" and sorted(pair) == [1, 2]:
            # a tabled condition choosing between the two sides of the
            # unknown *is* an index choice: which column to gather
            (a, ca), (b, cb) = [(f"u{s}", ("owner", "other")[s - 1]) for s in pair]
            upwind = (table.rows, f"np.where({cond}, {a}, {b})")
            if out.upwind is None:
                out.upwind = upwind
                out.tables.append(Hoisted(
                    "upw", f"np.where({table.name}, {ca}, {cb})", table.rows))
            if out.upwind == upwind:
                reads.update((a, b))
                factors[i] = "uw"
        if factors[i] is None:
            factors[i] = (f"np.where({cond}, {self._walk(then[i], ctx, reads)}, "
                          f"{self._walk(other[i], ctx, reads)})")
        return "(" + " * ".join(factors) + ")" if len(factors) > 1 else factors[i]

    def _walk(self, node: Expr, ctx: str, reads: set[str]) -> str:
        hoisted = self._hoisted
        scope = self._hoist_scope(node) if hoisted is not None else None
        if scope is not None:
            key = (ctx, node)
            if key not in hoisted:
                # build the definition's code without re-entering the hoisting
                self._hoisted = None
                try:
                    code = self._walk(
                        node, ctx, self._out.table_reads if scope[0] == "bind" else reads)
                finally:
                    self._hoisted = hoisted
                hoisted[key] = self._define(scope, code)
            return hoisted[key]
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
        if isinstance(node, Add):
            return "(" + " + ".join(self._walk(a, ctx, reads) for a in node.args) + ")"
        if isinstance(node, Mul):
            return "(" + " * ".join(self._walk(a, ctx, reads) for a in node.args) + ")"
        if isinstance(node, Pow):
            base = self._walk(node.base, ctx, reads)
            if isinstance(node.base, Num) and node.base.value < 0:
                base = f"({base})"  # ``-1.0 ** x`` would parse as ``-(1.0 ** x)``
            if isinstance(node.exponent, Num):
                e = node.exponent.value
                if e == -1:
                    return f"(1.0 / {base})"
                return f"({base} ** {repr(float(e))})"
            exponent = self._walk(node.exponent, ctx, reads)
            return f"({base} ** {exponent})"
        if isinstance(node, Cmp):
            lhs = self._walk(node.lhs, ctx, reads)
            rhs = self._walk(node.rhs, ctx, reads)
            return f"({lhs} {node.op} {rhs})"
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
            return f"kernels.muscl_flux(geom, {vn}, u[sel], ghost[sel])"
        if isinstance(node, Call):
            if node.func in _MATH_FUNCS:
                args = ", ".join(self._walk(a, ctx, reads) for a in node.args)
                return f"{_MATH_FUNCS[node.func]}({args})"
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
            return "u[sel]"
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


@dataclass
class TileBody:
    """What :func:`emit_tile_body` hands a target: the ``lines`` of one
    tile, the ``sweep`` lines run once before the first tile, the array
    leaves (``reads``) those two need bound, the source (``setup``) of
    ``invariant_tables`` and the comma-joined names (``tables``) of the list
    it returns (both empty if nothing is tabled), and the emitted
    ``surface`` statement."""

    lines: list[str]
    sweep: list[str]
    reads: set[str]
    setup: list[str]
    tables: str
    surface: EmittedExpr


def hoisted_lines(defs: list[Hoisted]) -> list[str]:
    """Assignments evaluating ``defs``, each over its own rows."""
    lines: list[str] = []
    rows = None
    for h in defs:
        if h.rows != rows:
            rows = h.rows
            lines.append(f"sel = trep_{rows}  # one component per row")
        lines.append(f"{h.name} = {h.code}")
    return lines


def _invariant_tables(surface: EmittedExpr, volume: EmittedExpr) -> tuple[list[str], str]:
    """Source of ``invariant_tables`` and the names of the list it returns."""
    tables = surface.tables + volume.tables
    if not tables:
        return [], ""
    reads = surface.table_reads | volume.table_reads
    body = [
        '"""Sub-expressions that never change between steps, each over the',
        "indices it depends on (``tmap_*``: component -> row), on the faces",
        "whose geometry is passed; ``owner``/``other`` are the columns of",
        '``[cells | ghosts]`` holding each face\'s two sides."""',
    ]
    body += [f"{name} = normal[:, {axis - 1}]" for axis, name in _AXIS_NAMES.items()
             if name in reads]
    body += hoisted_lines(tables)
    names = ", ".join(h.name for h in tables)
    body.append(f"return [{names}]")
    head = "def invariant_tables(normal, face_dist, owner, other):"
    return [head] + ["    " + ln for ln in body] + ["", ""], names


def emit_tile_body(
    emitter: ExprEmitter,
    *,
    gather: list[str],
    gather_upwind: list[str],
    divergence: str,
    store: str,
    overrides: str | None = None,
) -> TileBody:
    """The statements every target runs on one tile of component rows.

    gather ``u1``/``u2`` (or the upwinded ``uw``) → surface statement →
    FLUX overrides → divergence → volume statement → store.  ``sel`` is the
    tile's row selector; the caller wraps the body in its tile loop and
    supplies what differs per target: the ``gather`` lines binding ``u1,
    u2``, the ``gather_upwind`` lines binding ``uw`` from the ``upw`` column
    table and the tile's table rows ``uw_rows``, the ``divergence``
    expression over ``flux``, the name of a precomputed ``(faces, values)``
    override list (CPU only), and the ``store`` statement consuming
    ``source`` and ``div``.  Every operation is elementwise per row (the
    CSR divergence is per column) and a statement reads the unknown only
    through the tile's own rows — ``u[sel]``, ``u1``/``u2``/``uw``; the
    walker fails with RPR141 on anything else — so results do not depend on
    the tiling and the store may overwrite ``u[sel]`` itself.
    """
    form = emitter.form
    surface = emitter.emit_sum(form.surface_terms, "surface")
    volume = emitter.emit_sum(form.volume_terms, "volume")
    setup, tables = _invariant_tables(surface, volume)
    sweep = hoisted_lines(surface.sweep + volume.sweep)
    body: list[str] = []

    def statement(name: str, target: str, expr: EmittedExpr, terms: list[Expr]) -> None:
        body.extend(f"# RHS {name}: {t}" for t in map(str, terms))
        body.extend(expr.prelude)
        body.append(f"{target} = {expr.code}")

    if form.surface_terms:
        if surface.gathers_upwind:
            body += [f"uw_rows = tmap_{surface.upwind[0]}[sel]", *gather_upwind]
        else:
            body += gather
            if surface.upwind:  # a side is also read on its own: select from both
                body.append(f"uw = {surface.upwind[1]}")
        statement("surface", "flux", surface, form.surface_terms)
        if not any(r in ("u1", "u2", "u") or r.startswith("var_")
                   for r in surface.reads):
            # no (row, face) leaf: the statement yields less than a full
            # tile, which the overrides and the divergence need
            body.append("flux = np.broadcast_to(flux, u1.shape).copy()")
        if overrides is not None:
            body += [
                "# FLUX-type boundary callbacks override their faces",
                f"for faces, values in {overrides}:",
                "    flux[:, faces] = values[sel]",
            ]
        body.append(f"div = {divergence}")
    else:
        body.append("div = 0.0")
    if form.volume_terms:
        statement("volume", "source", volume, form.volume_terms)
    else:
        body.append("source = 0.0")
    body.append(store)
    return TileBody(body, sweep, surface.reads | volume.reads, setup, tables, surface)


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
    "TileBody",
    "emit_tile_body",
    "hoisted_lines",
]
