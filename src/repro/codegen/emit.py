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


@dataclass
class EmittedExpr:
    """One emitted expression and its work estimate (per produced value).

    ``prelude`` carries hoisted common-subexpression assignments (state-free
    array temporaries); targets emit them immediately before the statement
    that uses ``code``.
    """

    code: str
    flops: int
    reads: set[str] = field(default_factory=set)
    prelude: list[str] = field(default_factory=list)

    @property
    def bytes_per_value(self) -> int:
        # one 8-byte read per distinct array leaf + the 8-byte result write
        return 8 * (len(self.reads) + 1)


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
        # common-subexpression hoisting is live only inside emit_sum(cse=True)
        self._cse_table: dict | None = None
        self._cse_lines: list[str] = []

    # ------------------------------------------------------------- public API
    def emit_volume(self, term: Expr) -> EmittedExpr:
        """Emit a volume integrand producing ``(nsel, ncells)`` values."""
        return self._emit(term, context="volume")

    def emit_surface(self, term: Expr) -> EmittedExpr:
        """Emit a surface integrand producing ``(nsel, nfaces)`` values."""
        return self._emit(term, context="surface")

    def emit_sum(self, terms: list[Expr], context: str, cse: bool = True,
                 tag: str | None = None) -> EmittedExpr:
        """Sum of several integrands (zero if empty).

        With ``cse`` (the default), repeated/compound *coefficient-only*
        subexpressions — e.g. the projected velocity ``vg*(Sx*nx + Sy*ny)``
        that first-order upwinding evaluates three times inside its
        conditional — are hoisted into prelude temporaries.  They read only
        normals/coefficients (never the solution or time), so evaluating
        them once per statement is always safe.
        """
        if not terms:
            return EmittedExpr("0.0", 0)
        self._cse_table = {} if cse else None
        self._cse_tag = tag if tag is not None else context[0]
        self._cse_lines = []
        try:
            parts = [self._emit(t, context) for t in terms]
        finally:
            prelude = list(self._cse_lines)
            self._cse_table = None
            self._cse_lines = []
        code = " + ".join(f"({p.code})" for p in parts)
        flops = sum(p.flops for p in parts) + (len(parts) - 1)
        reads: set[str] = set()
        for p in parts:
            reads |= p.reads
        return EmittedExpr(code, flops, reads, prelude=prelude)

    # ------------------------------------------------------------- internals
    #: leaf name prefixes that are constant within one RHS evaluation
    _INVARIANT_PREFIXES = ("normal_", "coef_", "face_dist")

    def _emit(self, term: Expr, context: str) -> EmittedExpr:
        reads: set[str] = set()
        flops = _count_flops(term)
        code = self._walk(term, context, reads)
        return EmittedExpr(code, flops, reads)

    def _is_invariant_compound(self, node: Expr) -> bool:
        """Compound expression built purely from coefficients/geometry."""
        if not isinstance(node, (Add, Mul, Pow)):
            return False
        n_leaves = 0
        for sub in preorder(node):
            if isinstance(sub, (Num,)):
                continue
            if isinstance(sub, (Add, Mul, Pow)):
                continue
            if isinstance(sub, FaceNormal) or isinstance(sub, FaceDistance):
                n_leaves += 1
                continue
            if isinstance(sub, Sym) and sub.name.startswith("_") and sub.name.endswith("_1"):
                coef = self.entities.coefficients.get(sub.name[1:-2])
                if coef is not None and not coef.is_function:
                    n_leaves += 1
                    continue
                return False
            if isinstance(sub, Indexed):
                coef = self.entities.coefficients.get(sub.base)
                if coef is not None and not coef.is_function:
                    n_leaves += 1
                    continue
                return False
            return False
        return n_leaves >= 2  # hoisting single leaves buys nothing

    def _walk(self, node: Expr, ctx: str, reads: set[str]) -> str:
        table = self._cse_table
        if table is not None and self._is_invariant_compound(node):
            key = (ctx, node)
            if key not in table:
                # build the temp's code without re-entering the CSE path
                self._cse_table = None
                try:
                    code = self._walk(node, ctx, reads)
                finally:
                    self._cse_table = table
                name = f"cse_{self._cse_tag}{len(table)}"
                table[key] = name
                self._cse_lines.append(f"{name} = {code}")
            else:
                # leaves were already counted when the temp was defined
                pass
            return table[key]
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
            cond = self._walk(node.cond, ctx, reads)
            then = self._walk(node.then, ctx, reads)
            other = self._walk(node.otherwise, ctx, reads)
            return f"np.where({cond}, {then}, {other})"
        if isinstance(node, Reconstruction):
            if ctx != "surface":
                raise CodegenError("flux reconstructions only exist in surface terms")
            if node.scheme != "muscl":
                raise CodegenError(f"unknown reconstruction scheme {node.scheme!r}")
            qty = node.quantity
            is_unknown = (
                isinstance(qty, Indexed) and qty.base == self.unknown.name
            ) or (isinstance(qty, Sym) and qty.name == f"_{self.unknown.name}_1")
            if not is_unknown:
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
            return self._emit_variable(node.base, ctx, side, reads)
        if kind == "coefficient":
            return self._emit_coefficient(node.base, ctx, reads)
        raise CodegenError(f"cannot emit indexed entity {node.base!r}")

    def _emit_side(self, node: SideValue, ctx: str, reads: set[str]) -> str:
        if ctx != "surface":
            raise CodegenError("face-side values only exist in surface terms")
        inner = node.expr
        if (isinstance(inner, Indexed) and inner.base == self.unknown.name) or (
            isinstance(inner, Sym) and inner.name == f"_{self.unknown.name}_1"
        ):
            name = "u1" if node.side == 1 else "u2"
            reads.add(name)
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
        variable's component — and for every array coefficient ``c``,
        ``coef_c`` broadcast to the unknown's component axis.
        """
        import numpy as np

        out: dict[str, object] = {}
        space = self.space
        referenced = self._referenced_entities()
        for name in referenced["variables"]:
            if name == self.unknown.name:
                continue
            var = self.entities.variables[name]
            if var.indices:
                vspace = var.space
                axes = [space.axis_values(ix) for ix in vspace.names]
                flat = np.zeros(space.ncomp, dtype=np.int64)
                for vals, size in zip(axes, vspace.sizes):
                    flat = flat * size + vals
                out[f"cmap_{name}"] = flat
            else:
                out[f"cmap_{name}"] = np.zeros(max(space.ncomp, 1), dtype=np.int64)
        for name in referenced["coefficients"]:
            coef = self.entities.coefficients[name]
            if coef.is_function:
                continue  # evaluated per step by the generated driver
            if coef.indices:
                cspace = coef.space
                axes = [space.axis_values(ix) for ix in cspace.names]
                flat = np.zeros(space.ncomp, dtype=np.int64)
                for vals, size in zip(axes, cspace.sizes):
                    flat = flat * size + vals
                values = np.asarray(coef.value, dtype=np.float64).reshape(-1)
                out[f"coef_{name}"] = values[flat]
            else:
                out[f"coef_{name}"] = float(coef.value)
        return out

    def _referenced_entities(self) -> dict[str, list[str]]:
        variables: list[str] = []
        coefficients: list[str] = []
        for term in list(self.form.volume_terms) + list(self.form.surface_terms):
            for node in preorder(term):
                name: str | None = None
                if isinstance(node, Indexed):
                    name = node.base
                elif isinstance(node, Sym) and node.name.startswith("_") and node.name.endswith("_1"):
                    name = node.name[1:-2]
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


def emit_tile_body(
    emitter: ExprEmitter,
    *,
    gather: list[str],
    divergence: str,
    store: str,
    overrides: str | None = None,
) -> tuple[set[str], list[str]]:
    """The statements every target runs on one tile of component rows.

    gather ``u1``/``u2`` → surface statement → FLUX overrides → divergence
    → volume statement → store.  ``sel`` is the tile's row selector; the
    caller wraps the body in its tile loop and supplies what differs per
    target: the ``gather`` lines binding ``u1, u2``, the ``divergence``
    expression over ``flux``, the name of a precomputed ``(faces, values)``
    override list (CPU only), and the ``store`` statement consuming
    ``source`` and ``div``.  Every operation is elementwise per row (the
    CSR divergence is per column), so results do not depend on the tiling.
    Returns the reads the caller's prologue must bind, then the body.
    """
    form = emitter.form
    surface = emitter.emit_sum(form.surface_terms, "surface")
    volume = emitter.emit_sum(form.volume_terms, "volume")
    body: list[str] = []

    def statement(name: str, target: str, expr: EmittedExpr, terms: list[Expr]) -> None:
        body.extend(f"# RHS {name}: {t}" for t in map(str, terms))
        if expr.prelude:
            body.append("# hoisted coefficient-only subexpressions")
            body.extend(expr.prelude)
        body.append(f"{target} = {expr.code}")

    if form.surface_terms:
        body += gather
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
    return surface.reads | volume.reads, body


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
    "emit_tile_body",
]
