"""Every sweep as generated C: printer, build and load.

A sweep (:func:`repro.codegen.emit.emit_interior`) is one of two loop shapes
over the rows it is handed: over the cells (a statement folded through the
divergence, the volume statement, the store), or over the faces first (both
sides of the unknown, the face statement, the FLUX overrides, each column's
faces in the divergence's CSR order from ``+0.0``), then the cells — or,
for the boundary part, only the boundary cells' columns.  :func:`lower`
prints a program's sweeps as one translation unit from the emitter's
statement record (:class:`~repro.codegen.emit.Stmt`) — with a device step's
``finish_step``, the same for every program — :func:`build` compiles it once,
and :class:`Tile` calls a function of it through :mod:`ctypes` once per
sweep, its arguments resolved once per state.

Every operation is printed on the same operands in the same order, spelt as
the one table of operations gives it (:data:`~repro.codegen.emit.OPS`),
correctly rounded (:data:`FLAGS`: no FMA contraction), so every element keeps
its bits; plain floats are computed by Python before the call, and what has no
C spelling the emitter evaluates in NumPy before it.  The store is the
program's stepper, fixed when the text is printed (no loop over the cells has
a branch, each is vectorized: one lane is one element), an RK stage a function
of its own; a host step's last sweep also accumulates the post-step callbacks'
declared reductions (:class:`~repro.dsl.entities.Reduction`) of each row it
stored, in :func:`repro.fvm.kernels.reduce_rows`' order, and a device step's
finish does, with the same loop; both then read the outputs once more to
report whether the unknown they stored is finite (``check_health``'s proof).
The text holds no size, count, coefficient or name the user chose: one library
per program shape, memoised per process by (text, compiler, flags) and
single-flight, in the compilation cache's ``tiles/`` directory when one is
configured and writable (one the loader refuses is built again and replaced),
else in a private directory removed once the library is loaded.  A missing or
failing compiler is :class:`~repro.util.errors.CodegenError` RPR142
(docs/architecture.md, "The tile as C").
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from typing import NamedTuple

import numpy as np

from repro.codegen.emit import COMPARISONS, OPS, Leaf, Op, Stmt, Table
from repro.util.errors import CodegenError

#: The compiler, found on ``PATH``.
COMPILER = "cc"
#: One set of flags, each there for a reason: ``-ffp-contract=off`` (no
#: fused multiply-add: each product is rounded, as NumPy rounds it),
#: ``-fno-math-errno`` (``sqrt`` is the instruction, not a libm call that
#: may set ``errno``), ``-nostdlib`` (the function calls nothing; faster
#: link), ``-O1 -ftree-vectorize -fvect-cost-model=cheap``: every loop of the
#: tile runs at SIMD width — the element loop, which may update in place,
#: versioned for aliasing — where ``-O2`` alone vectorizes none (its
#: very-cheap cost model refuses a loop whose trip count is unknown) and
#: ``-O2``'s loop distribution would call ``memset``; as fast a tile as
#: ``-O3``, built in less time (EXPERIMENTS.md, "The C tile at SIMD width").
#: Vectorizing reorders no operation of an element: lanes are elements.
#: Nothing that may reorder or contract floating-point operations.
FLAGS = ("-O1", "-ftree-vectorize", "-fvect-cost-model=cheap", "-shared", "-fPIC", "-pipe",
         "-nostdlib", "-ffp-contract=off", "-fno-math-errno")


class Lowered(NamedTuple):
    """A printed sweep: the C translation unit (``text``: every function of
    the program, compiled once), the Python expressions of the scalars the
    function takes by value after ``dt`` (``scalars``) and of the arrays it
    reads (``operands``: those resolved once first, those checked on every
    call last), and per operand how it is passed (``kinds``,
    :meth:`Tile._pointers`)."""

    text: str
    scalars: tuple[str, ...]
    operands: tuple[str, ...]
    kinds: str
    folds: int
    #: ``(operand, row map)``: the row map indexes the operand's rows
    bounds: tuple[tuple[int, int], ...]
    store: str  # ``euler`` or an RK step's ``last`` (these reduce and prove), ``stage``, none
    #: ``cells`` (a loop over the cells), ``faces`` (a loop over the faces,
    #: then over the cells), ``boundary`` (a loop over the boundary faces
    #: into the boundary cells' columns) or ``finish`` (a device step's end)
    shape: str
    symbol: str  # (the C function's name)
    #: the boundary part's function, printed into the same unit
    boundary: "Lowered | None" = None
    #: a device step's ``finish_step``, printed into every unit
    finish: "Lowered | None" = None
    stages: "tuple[Lowered, ...]" = ()  # (an RK program's before its last: ``stage1``...)
    #: per C parameter, how it is passed: ``d`` a double, ``l`` a long, ``p`` a pointer
    codes: str = ""


#: Operand kinds with fixed C names (one per function): the face loop's
#: geometry and divergence, the ghost values, the FLUX overrides.
_FIXED = {
    "L": ("long nf", "const long *restrict fs1", "const long *restrict fs2",
          "const long *restrict fc", "const double *restrict fn", "const double *restrict fd",
          "const long *restrict db", "const long *restrict dc", "const double *restrict dw"),
    "g": ("long ng", "const double *restrict gh"),
    "r": ("long nov", "const long *restrict oi", "const double *restrict ov"),
}


class _Printer:
    """Print a sweep's statements as per-element C (:func:`lower`): over
    the cells (``at == "c"``) or the faces (``"f"``)."""

    def __init__(self, at: str = "c", select=None, uw: str = "xw"):
        self.locals: dict[str, str] = {}
        self.floats: dict[str, object] = {}  # a name bound to a plain float: its term
        self.scalars: dict[str, str] = {}  # a Python expression: its C name
        self.operands: list[tuple[str, str, tuple]] = []  # (kind, Python expression, C params)
        self.rowptrs: list[str] = []
        self.held: dict[object, str] = {}  # an operand or a row pointer: its C name
        self.folds: dict[str, str] = {}  # a folded operator: its row map
        self.bounds: set[tuple[str, str]] = set()
        self.body: list[str] = []
        self.at, self.select, self.uw = at, select, uw
        self.sides: dict[str, str] = {}  # a face side read: its C declaration

    # -- operands -------------------------------------------------------------
    def _operand(self, kind: str, source: str, *params: str) -> str:
        """The argument ``source`` (Python), passed once as ``params`` (C)."""
        if (kind, source) not in self.held:
            self.held[kind, source] = f"a{len(self.operands)}"
            self.operands.append((kind, source, _FIXED.get(kind, params)))
        return self.held[kind, source]

    def _map(self, user: str, source: str) -> str:
        """The row map ``source`` (a Python name), read by the operand ``user``."""
        rows = self._operand("m", source, "const long *restrict {}")
        self.bounds.add((user, rows))
        return rows

    def _table(self, t: Table, condition: bool) -> str:
        """The element of a table read by the tile's row map, or of a value
        evaluated over the sweep's rows by its row ``i``."""
        name, face = t.h.name, self.at == "f"
        if t.test and not condition:
            raise CodegenError(f"tile: the comparison {name} read as a number")
        if not t.h.rows:  # one row per row of the sweep
            arr = self._operand("eE"[face], name, "const double *restrict {}")
            return f"{self._rowptr('const double *', f'{arr} + i * ' + ('nf' if face else 'n'))}[{self.at}]"
        ctype = "const unsigned char" if t.test else "const double"
        kind = ("bk" if t.test else "tn")[not t.wide]
        arr = self._operand(kind.upper() if face and t.wide else kind, name,
                            ctype + " *restrict {}")
        row = f"{self._map(arr, f'tmap_{t.h.rows}')}[g]" + (" * nf" if face else " * n") * t.wide
        return f"{self._rowptr(ctype + ' *', f'{arr} + {row}')}[{self.at if t.wide else '0'}]"

    def _rowptr(self, ctype: str, value: str) -> str:
        """A pointer set once per row ``g`` of the sweep."""
        if value not in self.held:
            self.held[value] = f"p{len(self.rowptrs)}"
            self.rowptrs.append(f"{ctype}{self.held[value]} = {value};")
        return self.held[value]

    def _local(self, name: str) -> str:
        return self.locals.setdefault(name, f"r{len(self.locals)}")

    def _side(self, name: str) -> str:
        """A face's side value, read once per face: the unknown of the face's
        first cell, of its second cell or ghost slot (``~slot``), or the
        upwinded one of the two."""
        side = {"u1": "x1", "u2": "x2", "uw": self.uw}[name]
        if side not in self.sides:
            self._operand("L", "faces")
            if side == "xw":
                self.sides[side] = f"const double xw = {self.expr(self.select)};"
            elif side == "x2":
                self._operand("g", "ghost")
                self.sides[side] = ("const long t2 = fs2[f];\n"
                                    "const double x2 = t2 >= 0 ? ur[t2] : gr[~t2];")
            else:
                self.sides[side] = "const double x1 = ur[fs1[f]];"
        return side

    def _plain(self, t):
        """``t`` if it is a plain float — a literal, a scalar coefficient,
        ``dt``, a name bound to one (read as its term), Python or NumPy
        (``np.f``) of them — else ``None``."""
        if isinstance(t, float):
            return t if math.isfinite(t) else None
        if isinstance(t, Leaf):
            return t if t.kind == "s" else self.floats.get(t.name)
        if isinstance(t, Op) and OPS[t.op][0][:3] in ("({}", "np."):
            args = tuple(map(self._plain, t.args))
            return None if None in args else t._replace(args=args)
        return None

    def _scalar(self, t) -> str:
        """A plain float: a literal, or passed by value (Python computes it
        before the call)."""
        if isinstance(t, float):
            return f"({t!r})"
        return self.scalars.setdefault(str(t), f"s{len(self.scalars) + 1}")

    # -- terms and statements -------------------------------------------------
    def expr(self, t, condition: bool = False) -> str:
        """C of one element of ``t``.  A comparison of arrays is only read
        as a select's condition or stored as a float (``condition``): the
        emitter evaluates NumPy's bool arithmetic before the sweep."""
        plain = self._plain(t)
        if plain is not None:
            return self._scalar(plain)
        if isinstance(t, Table):
            return self._table(t, condition)
        if isinstance(t, str):
            return self._side(t)
        if isinstance(t, Leaf):
            if t.kind == "u":
                return "ur[c]"
            if t.name in self.locals:
                return self.locals[t.name]
            if t.kind == "n":  # the face's geometry
                self._operand("L", "faces")
                return "fd[f]" if t.name == "face_dist" else f"fn[{'xyz'.index(t.name[-1])} * nf + f]"
            if t.kind == "o":  # a known variable on the first cell of the face
                self._operand("L", "faces")
                var = self._operand("o", t.name, "const double *restrict {}", "long {}l")
                row = f"{var} + {self._map(var, f'cmap_{t.name[4:]}')}[g] * {var}l"
                return f"{self._rowptr('const double *', row)}[fc[f]]"
            if t.kind in "ch":  # a column, a row over the cells or the faces
                kind = "H" if t.kind == "h" and self.at == "f" else t.kind
                arg = self._operand(kind, t.name, "const double *restrict {}")
                return f"{arg}[{'g' if t.kind == 'c' else self.at}]"
        c = isinstance(t, Op) and OPS[t.op][3]
        if not c or (t.op in COMPARISONS and not condition):
            raise CodegenError(f"tile: {t} has no C form")
        if len(t.args) > c.count("{}"):  # ``a + b + c`` is ``(a + b) + c``, as Python reads it
            return self.expr(Op(t.op, (Op(t.op, t.args[:-1]), t.args[-1])))
        return c.format(*(self.expr(a, condition=t.op == "np.where" and i == 0)
                          for i, a in enumerate(t.args)))

    def statement(self, s: Stmt) -> None:
        target, t = s
        plain = self._plain(t.args[0]) if t.op == "=" else None
        if plain is not None and target not in self.locals:
            self.floats[target] = plain  # a plain float: read where used
            return
        if t.op in ("fold", "take"):
            name, rows = t.args
            if t.op == "fold":  # formed for every column ahead of the statements
                op = self._operand("f", name, *(f"const {c} *restrict {{}}{x}" for c, x in (
                    ("double", "o"), ("long", "b"), ("long", "e"), ("double", "w"),
                    ("long", "g"))))
                self.folds.setdefault(op, self._map(op, f"tmap_{rows}"))
                row = f"f{list(self.folds).index(op)}"
            else:  # a known variable's rows, by its component map
                var = self._operand("v", name, "const double *restrict {}")
                row = self._rowptr("const double *", f"{var} + {self._map(var, rows)}[g] * n")
            code = OPS[t.op][3].format(row)
        else:  # a register written (a comparison lands as 1.0/0.0), a name bound
            code = self.expr(t, condition=True)
        self.body.append(f"{self._local(target)} = {code};")

    def element(self) -> list[str]:
        """The loop body over the elements: the sides read, the locals, the
        statements."""
        sides = [ln for side in ("x1", "x2", "xw") if side in self.sides
                 for ln in self.sides[side].split("\n")]
        declare = ["double " + ", ".join(self.locals.values()) + ";"] if self.locals else []
        return [*sides, *declare, *self.body]

    # -- the unit -------------------------------------------------------------
    def unit(self, comment: str, head: list[str], rows: list[str], store: str,
             shape: str, symbol: str = "tile") -> Lowered:
        """The function ``symbol``, ``head`` (its parameters but the operands')
        over the rows of the sweep (``rows``), its operands in the order first read."""
        params = [p.format(f"a{k}") for k, (_, _, ps) in enumerate(self.operands) for p in ps]
        text = "\n".join([comment.rstrip(), f"int {symbol}("
                          + ",\n          ".join(head + params) + ")", "{", *rows, "}"]) + "\n"
        kinds, sources, _ = zip(*self.operands) if self.operands else ((), (), ())
        codes = "".join("p" if "*" in p else p[0] for p in head + params)
        return Lowered(text, tuple(self.scalars), sources, "".join(kinds), len(self.folds),
                       tuple(sorted((int(a[1:]), int(b[1:])) for a, b in self.bounds)),
                       store, shape, symbol, codes=codes)

    def face_loop(self, statement, into: str, cells: str) -> list[str]:
        """One row's loop over the faces of ``statement``: the sides and the
        face statement per face into ``fl``, the FLUX overrides over their
        faces, then per output column (``cells`` of them, into ``into``) its
        faces in the divergence's slot order, from ``+0.0`` as the CSR
        product sums them."""
        for s in [*statement.statements, Stmt("flux", Op("=", (statement.term,)))]:
            self.statement(s)
        flux = self.expr(Leaf("r", "flux"))
        self._operand("L", "faces")
        self._operand("r", "overrides")
        return [
            *["        const double *gr = gh + g * ng;"] * ("x2" in self.sides),
            "        for (long f = 0; f < nf; f++) {",
            *("            " + ln for ln in self.element()),
            f"            fl[f] = {flux};",
            "        }",
            "        for (long j = 0; j < nov; j++) fl[oi[j]] = ov[g * nov + j];",
            f"        for (long c = 0; c < {cells}; c++) {{",
            "            double a = 0.0;",
            "            for (long e = db[c]; e < db[c + 1]; e++) a = a + dw[e] * fl[dc[e]];",
            f"            {into}[c] = a;",
            "        }",
        ]


#: per row ``g`` of the sweep (``i``: its position), the unknown's row
_ROW = ["    for (long i = 0; i < nrows; i++) {",
        "        const long g = rows ? rows[i] : i;",
        "        const double *ur = u + g * n;"]
#: the declared reductions' parameters, zeroed before the rows
_REDUCE = ["long nq", "double *const *restrict ro", "const long *restrict rn",
           "const long *restrict rg", "const double *restrict rw"]
_ZERO = ["    for (long q = 0; q < nq; q++)",
         "        for (long k = 0; k < rn[q]; k++) ro[q][k] = 0.0;"]
#: each declared reduction of the stored row ``o``, the term first (of two
#: NaNs the term's is kept, as ``np.add.at`` keeps it)
_REDUCE_ROW = ["        for (long q = 0; q < nq; q++) {",
               "            double *restrict e = ro[q] + rg[q * nu + g] * n;",
               "            const double we = rw[q * nu + g];",
               "            for (long c = 0; c < n; c++) e[c] = o[c] * we + e[c];",
               "        }"]
#: after the rows: 1 when every row was swept and reduced and no output is NaN
#: or Inf — each element of a row goes into an output, where a non-finite term
#: stays non-finite, so the stored unknown is finite.  (An exponent of all
#: ones carries into bit 63 when one is added to it; an OR vectorizes.)
_PROVE = ["    unsigned long m = 0;",
          "    for (long q = 0; !rows && q < nq; q++)",
          "        for (long k = 0; k < rn[q]; k++) {",
          "            const union { double d; unsigned long b; } v = {ro[q][k]};",
          "            m = m | ((v.b & 0x7ff0000000000000) + 0x10000000000000);",
          "        }",
          "    return !rows && nq > 0 && !(m >> 63);"]


def _head(printer: _Printer, *rest: str) -> list[str]:
    """The parameters every sweep takes first: the scalars by value (``dt``
    first), the rows, the unknown's shape, the unknown, the output and the
    scratch — then ``rest``."""
    return [*(f"double s{i}" for i in range(len(printer.scalars) + 1)), "long nrows",
            "const long *restrict rows", "long nu", "long n", "const double *u",
            "double *out", "double *restrict w", *rest]


#: per row, the boundary cells' add into the row ``{0}``, times ``dt`` where it is stepped
_BOUNDARY_ADD = "        for (long k = 0; k < nb; k++) {0}[bc[k]] = {0}[bc[k]] + bd[g * nb + k]{1};"


def _boundary(statement, in_place: bool) -> Lowered:
    """The boundary part's function: per row, the face statement over the
    boundary faces into the boundary cells' columns of ``out``."""
    b = _Printer("f", statement.upwind and statement.upwind.select, "x1" if in_place else "xw")
    faces = b.face_loop(statement, "dv", "nc")
    rows = [*_ROW, "        double *restrict fl = w, *restrict dv = out + g * nc;",
            *("        " + p for p in b.rowptrs), *faces, "    }", "    return 0;"]
    return b.unit(
        "/* The boundary part, generated (repro.codegen.ctile): per row g, the face\n"
        "   statement over the boundary faces (the first side the value handed in,\n"
        "   the second its ghost), the FLUX overrides, the boundary cells' sums. */",
        _head(b, "long nc"), rows, "", "boundary", "boundary")


def _finish() -> Lowered:
    """A device step's ``finish_step``: per row of the sweep, over ``out``
    (the unknown, stepped), the boundary cells' add and the declared
    reductions as the Euler tile's, then the owner values of the boundary
    faces into ``w`` — of every row, a band rank's others too."""
    rows = [*_ZERO, *_ROW, "        double *o = out + g * n;", _BOUNDARY_ADD.format("o", " * s0"),
            *_REDUCE_ROW,
            "        for (long k = 0; k < no; k++) w[g * no + k] = o[own[k]];",
            "    }",
            "    for (long g = 0; rows && g < nu; g++)",
            "        for (long k = 0; k < no; k++) w[g * no + k] = u[g * n + own[k]];", *_PROVE]
    f = _Printer()
    return f.unit(
        "/* finish_step, generated (repro.codegen.ctile): per row g, u + (du * dt) in\n"
        "   the boundary cells' columns, each declared reduction of the row, the\n"
        "   owner values of the boundary faces; out is u. */",
        _head(f, "long nb", "const long *restrict bc", "const double *restrict bd", "long no",
              "const long *restrict own", *_REDUCE), rows, "euler", "finish", "finish")


def lower(volume, scheme, *, folded=None, surface=None, boundary=None) -> Lowered:
    """The C sweep of a ``volume`` statement (``0.0`` when there are no volume
    terms) and of the surface: a ``folded`` statement (a loop over the cells),
    a two-sided ``surface`` statement (a loop over the faces, then over the
    cells) or none, :class:`~repro.codegen.emit.EmittedExpr`; it stores forward
    Euler's update and reduces the stored rows, or it is each stage of the RK
    ``scheme`` (:func:`_stage`).  Into the same unit go ``boundary`` —
    ``(statement, in place)`` — the boundary part (:attr:`Lowered.boundary`;
    the upwinded side is the value handed in where ``in place``), and a device
    step's end (:attr:`Lowered.finish`), the same for every program."""
    tile = _Printer()
    faces: list[str] = []
    if surface is not None:  # the faces first, then the cells read ``dv``
        tile.at, tile.select = "f", surface.upwind and surface.upwind.select
        faces = tile.face_loop(surface, "dv", "n")
        tile.at, tile.sides, tile.body, tile.locals = "c", {}, [], {}
    elif folded is not None:
        for s in [*folded.statements, Stmt("div", Op("=", (folded.term,)))]:
            tile.statement(s)
    for s in [*volume.statements, Stmt("source", Op("=", (volume.term,)))]:
        tile.statement(s)
    div = ("dv[c]" if surface is not None else
           tile.expr(Leaf("r", "div")) if folded is not None else "(0.0)")
    source = tile.expr(Leaf("r", "source"))
    folds = len(tile.folds)
    rows = [
        *_ROW,
        "        /* o may be ur (in place): element c is read, then written */",
        "        double *o = out + g * n;",
        *["        double *restrict fl = w, *restrict dv = w + nf;"] * bool(faces),
        *("        " + p for p in tile.rowptrs),
        *faces,
    ]
    for k, (op, rowmap) in enumerate(tile.folds.items()):
        rows += [
            "        {",
            f"            double *restrict f = w + {k} * n;",
            f"            const long r = {rowmap}[g];",
            f"            const double *fo = {op}o + r * n;",
            "            for (long c = 0; c < n; c++) f[c] = ur[c] * fo[c];",
            f"            for (long e = {op}b[r]; e < {op}b[r + 1]; e++) {{",
            f"                const long *E = {op}e + 5 * e;",
            "                const long lo = E[0], hi = E[1], sh = E[2];",
            f"                const double *wt = {op}w + E[4];",
            "                if (E[3] < 0)",
            "                    for (long c = lo; c < hi; c++)",
            "                        f[c] = f[c] + ur[c + sh] * wt[c - lo];",
            "                else {",
            f"                    const long *ix = {op}g + E[3];",
            "                    for (long c = lo; c < hi; c++)",
            "                        f[c] = f[c] + ur[ix[c - lo]] * wt[c - lo];",
            "                }",
            "            }",
            "        }",
        ]
    rows += [f"        const double *restrict f{k} = w + {k} * n;" for k in range(folds)]
    rows += ["        for (long c = 0; c < n; c++) {",
             *("            " + ln for ln in tile.element()),
             f"            const double v = ({source} + {div});"]
    shape, boundary_head = "faces" if faces else "cells", _head(
        tile, "long nb", "const long *restrict bc", "const double *restrict bd")
    if scheme.stages == 1:
        stages, lowered = (), tile.unit(
            "/* A tile, generated (repro.codegen.ctile): per row g of the sweep, the\n"
            "   face loop or the folded operators, the statements per cell, the store\n"
            "   (u + v * dt, in place or not), the boundary cells' add,\n"
            "   each declared reduction of the stored row. */",
            [*boundary_head, *_REDUCE],
            [*_ZERO, *rows, "            o[c] = ur[c] + v * s0;", "        }",
             _BOUNDARY_ADD.format("o", " * s0"), *_REDUCE_ROW, "    }", *_PROVE], "euler", shape)
    else:
        k = f"    double *restrict kr = w + {'nf + n' if faces else f'{folds} * n'};"
        arrays = (tile._operand("U", "state.host_u", "const double *{}"), any(scheme.b[:-1]) and
                  tile._operand("S", "state.buffer('stage_sum', u.shape)", "double *restrict {}"))
        *stages, lowered = (_stage(tile, scheme, s, boundary_head, [k, *rows], shape, *arrays)
                            for s in range(scheme.stages))
    parts = [part for part in (boundary and _boundary(*boundary), _finish()) if part]
    text = "\n".join(part.text for part in [*stages, lowered, *parts])
    return lowered._replace(text=text, stages=tuple(p._replace(text=text) for p in stages),
                            **{p.shape: p._replace(text=text) for p in parts})


def _stage(tile: _Printer, scheme, s: int, head, rows, shape: str, base: str, sums) -> Lowered:
    """Stage ``s`` of an RK ``scheme`` over the tile's ``rows``: per row, ``k``
    (``v``, the boundary add) into ``kr``, then the next input ``b + s0 * k``
    (``b``: ``base``) and the sum (``sums``) from its first term, or ``u + s0 *
    (sum)``, as NumPy associates it (:func:`repro.fvm.timesteppers.advance`)."""
    last, weight = s + 1 == scheme.stages, scheme.b[s]  # (``1.0 * k`` is ``k``, bit for bit)
    total = "a[c] + " * any(scheme.b[:s]) + f"({weight!r}) * kr[c]" if weight else "a[c]"
    store = [f"        for (long c = 0; c < n; c++) o[c] = o[c] + s0 * ({total});"] if last else [
        f"        const double *b = {base} + g * n;", "        for (long c = 0; c < n; c++) {",
        "            o[c] = b[c] + s0 * kr[c];", *[f"            a[c] = {total};"] * bool(weight),
        "        }"]
    rows = [*_ZERO * last, *rows, "            kr[c] = v;", "        }",
            _BOUNDARY_ADD.format("kr", ""), *[f"        double *restrict a = {sums} + g * n;"]
            * bool(sums), *store, *_REDUCE_ROW * last, "    }",
            *(_PROVE if last else ["    return 0;"])]
    return tile.unit(f"/* {scheme.name} stage {s + 1}, generated (repro.codegen.ctile): as a "
                     "tile, its values per cell k, then its store. */", [*head, *_REDUCE * last],
                     rows, "last" if last else "stage", shape, "tile" if last else f"stage{s + 1}")


# ---------------------------------------------------------------------------
# build and load
# ---------------------------------------------------------------------------

class _Build:
    """One library of one text: the one the cache directory holds, loaded,
    or the compiler started, then the library loaded.  The compiler reads
    the text from, and writes its messages and the library into, a private
    directory ``work``, removed once the library is loaded (or moved into
    the cache directory: ``path``)."""

    def __init__(self, text: str, compiler: str, path: str, work: str, stats):
        self.text, self.compiler, self.path, self.work, self.stats = text, compiler, path, work, stats
        self.lock = threading.Lock()
        self.pid: int | None = None
        self.dll = None
        self.error: CodegenError | None = None

    def start(self) -> None:
        """Load the library at ``path`` or start the compiler: one the loader
        refuses is a miss, built again and replaced (``stats.disk_errors``)."""
        import ctypes

        if os.path.isfile(self.path):
            try:
                self.dll = ctypes.CDLL(self.path)
                self._remove()
                return
            except OSError:
                self.stats.disk_errors += 1
        source, built = os.path.join(self.work, "tile.c"), os.path.join(self.work, "tile.so")
        with open(source, "w") as fh:
            fh.write(self.text)
        errors = os.path.join(self.work, "errors")
        try:
            self.pid = os.posix_spawn(
                self.compiler, [self.compiler, *FLAGS, source, "-o", built], os.environ,
                file_actions=[(os.POSIX_SPAWN_OPEN, 2, errors,
                               os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)])
        except OSError as exc:
            self._remove()
            raise _compiler_error(f"cannot run the C compiler {self.compiler!r}: {exc}") from exc

    def result(self):
        """The loaded library (waits for the compiler, once: a failure to
        load is kept and raised again)."""
        with self.lock:
            if self.dll is None and self.error is None:
                try:
                    self.dll = self._load()
                except CodegenError as exc:
                    self.error = exc
                except OSError as exc:
                    self.error = _compiler_error(f"cannot load a built library: {exc}")
            if self.error is not None:
                raise self.error
            return self.dll

    def _load(self):
        import ctypes

        try:
            _, status = os.waitpid(self.pid, 0)
            built = os.path.join(self.work, "tile.so")
            if os.waitstatus_to_exitcode(status) != 0 or not os.path.exists(built):
                with open(os.path.join(self.work, "errors"), errors="replace") as fh:
                    message = fh.read().strip()
                raise _compiler_error(f"the C compiler {self.compiler!r} failed on a "
                                      f"generated function: {message}")
            if not self.path.startswith(self.work):
                try:
                    os.replace(built, self.path)  # (atomic: over an unloadable one too)
                    built = self.path
                except OSError:  # (a directory there): loaded privately
                    self.stats.disk_errors += 1
            return ctypes.CDLL(built)
        finally:
            self._remove()

    def _remove(self) -> None:
        """Remove the private directory (what is left in it)."""
        if os.path.isdir(self.work):
            for name in os.listdir(self.work):
                os.unlink(os.path.join(self.work, name))
            os.rmdir(self.work)


def _compiler_error(message: str) -> CodegenError:
    return CodegenError(message, code="RPR142")


_BUILDS: dict[str, _Build] = {}
_BUILDS_LOCK = threading.Lock()


def _compiler() -> tuple[str, str]:
    """The compiler's path on ``PATH`` and its identity (the file it is)."""
    import shutil

    search = (COMPILER, os.environ.get("PATH"))
    found = _COMPILERS.get(search)
    if found is None:
        path = shutil.which(COMPILER)
        if path is None:
            raise _compiler_error(f"no C compiler {COMPILER!r} on PATH: the tiles and the "
                                  "finish are built as C (install one, e.g. gcc, on PATH)")
        info = os.stat(path)
        found = _COMPILERS[search] = (
            path, f"{os.path.realpath(path)}:{info.st_size}:{info.st_mtime_ns}")
    return found


_COMPILERS: dict[tuple, tuple[str, str]] = {}


def build(text: str) -> _Build:
    """The library of ``text``: started now (the compiler runs while the
    caller goes on), or the one this process already has."""
    import tempfile

    compiler, identity = _compiler()
    key = hashlib.sha256("\0".join([text, identity, *FLAGS]).encode()).hexdigest()
    with _BUILDS_LOCK:
        held = _BUILDS.get(key)
        if held is not None:
            return held
        from repro.tune.cache import get_cache

        cache, work = get_cache(), None
        if cache.cache_dir is not None:
            directory = os.path.join(str(cache.cache_dir), "tiles")
            try:
                os.makedirs(directory, exist_ok=True)
                work = tempfile.mkdtemp(prefix=".build-", dir=directory)
                path = os.path.join(directory, f"{key[:32]}.so")
            except OSError:  # unwritable: built privately, nothing persisted
                cache.stats.disk_errors += 1
        if work is None:
            work = tempfile.mkdtemp(prefix="repro-tile-")
            path = os.path.join(work, "tile.so")
        held = _Build(text, compiler, path, work, cache.stats)
        held.start()
        _BUILDS[key] = held
    return held


class _Checked:
    """A call site's arguments but the unknown, the output and what is
    evaluated anew for every call, checked (dtype, C order, shape, every
    index in range) and resolved to the pointers passed around the unknown
    and the output (``head``, ``tail``), with what they came from (``keep``:
    an equal id in ``ids`` is the same object)."""

    def __init__(self, who: str, u, *objects):
        if not (isinstance(u, np.ndarray) and u.ndim == 2):
            raise CodegenError(f"{who}: the unknown is no C-ordered float64 array")
        self.who, self.shape, self.ids = who, u.shape, tuple(map(id, objects))
        self.unknown, self.out_shape = u, u.shape
        self.keep, self.apart, self.head, self.tail = list(objects), [], (), ()
        self.held = [None, 0, None, 0]  # the unknown and the output last passed, and their addresses

    def io(self, u, out) -> tuple[int, int]:
        """The unknown's and the output's addresses, checked on every call:
        C-ordered float64 of the held shapes, the output writeable, neither
        overlapping what is ``apart`` from them (or the output alone).  An
        address is taken when its object changes, and held with it."""
        held = self.held
        for a, shape in ((u, self.shape), (out, self.out_shape)):
            if not ((a.__class__ is np.ndarray or isinstance(a, np.ndarray)) and a.dtype
                    == np.float64 and a.flags.c_contiguous and a.shape == shape
                    and (a is not out or a.flags.writeable)):
                raise CodegenError(f"{self.who}: the {'unknown' if a is u else 'output'} "
                                   f"is no C-ordered float64 {shape} array")
        if u is not held[0]:
            held[0], held[1] = u, u.ctypes.data
        if out is not held[2]:
            held[2], held[3] = out, out.ctypes.data
        pu, po = held[1], held[3]
        for lo, hi, why, read in self.apart:
            if read and lo < pu + u.nbytes and pu < hi or lo < po + out.nbytes and po < hi:
                raise CodegenError(f"{self.who}: {why}")
        return pu, po

    def floats(self, a, shape, what: str, write: bool = False) -> int:
        if not (isinstance(a, np.ndarray) and a.dtype == np.float64
                and a.flags.c_contiguous and a.shape == tuple(shape)
                and (a.flags.writeable or not write)):
            raise CodegenError(f"{self.who}: the {what} is no C-ordered float64 "
                               f"{tuple(shape)} array")
        return a.ctypes.data

    def private(self, a, shape, what: str) -> int:
        """A read-only float array of ``shape`` evaluated from the pre-step
        unknown before the call, read as rows are stored: a copy (RPR141 on
        a view of the unknown), kept ``apart`` from the unknown and the
        output."""
        if isinstance(a, np.ndarray) and np.may_share_memory(a, self.unknown):
            raise CodegenError(f"{self.who}: the {what} share memory with the unknown; the "
                               "in-place sweep needs copies evaluated from the pre-step state",
                               code="RPR141")
        address = self.floats(a, shape, what)
        self.apart.append((address, address + a.nbytes, f"the {what} share memory "
                           "with the unknown or the output", True))
        return address

    def indices(self, a, bound: int, what: str, low: int = 0) -> np.ndarray:
        a = np.ascontiguousarray(a, dtype=np.int64)
        if a.ndim != 1 or (len(a) and not (a.min() >= low and a.max() < bound)):
            raise CodegenError(f"{self.who}: {what} out of range")
        self.keep.append(a)
        return a

    def rows(self, rows, nu: int) -> list:
        """``nrows, rows``: every row (``None``), or those."""
        if rows is None:
            return [nu, None]
        rows = self.indices(rows, nu, "rows")
        return [len(rows), rows.ctypes.data]

    def reductions(self, reductions, reduced, *inputs) -> list:
        """The declared reductions' arguments: their outputs (none shared
        with the ``inputs``, kept ``apart`` from the unknown and the output),
        and per component its output row and weight."""
        nu, n = self.shape
        if len(reduced) not in (0, len(reductions)):
            raise CodegenError(f"{self.who}: an output for every declared reduction, or none")
        pairs = list(zip(reductions, reduced))
        for r, o in pairs:
            self.floats(o, (r.rows, n), "reduction output", True)
            if len(r.group) != nu or any(np.may_share_memory(o, a) for a in inputs):
                raise CodegenError(f"{self.who}: a reduction over other rows, or into its input")
            self.apart.append((o.ctypes.data, o.ctypes.data + o.nbytes,
                               "a reduction over other rows, or into its input", True))
        ro = np.array([o.ctypes.data for _, o in pairs], dtype=np.uintp)
        rn = np.array([r.rows * n for r, _ in pairs], dtype=np.int64)
        rg = np.concatenate([np.zeros(0, np.int64),
                             *(self.indices(r.group, r.rows, "reduction rows")
                               for r, _ in pairs)])
        rw = np.concatenate([np.zeros(0), *(r.weight for r, _ in pairs)])
        self.keep += [ro, rn, rg, rw]
        return [len(pairs), ro.ctypes.data, rn.ctypes.data, rg.ctypes.data, rw.ctypes.data]


class Tile:
    """A function of a program's built library (:class:`Lowered`), called
    once per sweep.

    ``TILE(memo, scalars, rows, u, out, scratch, bcells, bdry, reduced,
    *operands)`` (an RK stage's too); the boundary part, ``BOUNDARY(memo,
    scalars, None, u_bdry, du_bdry, scratch, *operands)``; a device step's end,
    ``finish_step(memo, (dt,), rows, u, u, u_bdry, bcells, du_bdry, bowner,
    reduced)`` (the owner values written where a tile's scratch goes).
    ``scalars`` by value (``dt`` first), ``u`` and ``out`` checked on every
    call, the rest resolved once (:class:`_Checked`) and held in ``memo``, the
    state's ``plans``: one entry per call site, reused while each object is the
    one passed (what changes between steps is written into the same arrays).
    Rows are the state's (``None``, a band rank's ``owned_comps``), so a step
    resolves nothing; a degraded step's workspace, a restore or a repartition
    resolves again.  ``reduced`` is a last sweep's outputs of the declared
    ``reductions`` (:class:`~repro.dsl.entities.Reduction`), or empty.  Each
    returns 1 when it proved the unknown finite (a step's last sweep or the
    finish, :data:`_PROVE`), else 0."""

    def __init__(self, lib: _Build, lowered: Lowered, reductions=()):
        self.lib, self.fn = lib, None
        self.lowered, self.reductions = lowered, tuple(reductions)
        self.symbol = lowered.symbol
        #: the arguments after ``out`` that are no operands (the last: the reductions')
        self.places = {"boundary": 1, "finish": 5}.get(lowered.shape, 4)

    def wait(self) -> None:
        """Wait for the library and declare the function's signature (``d`` a
        double, ``l`` a long, ``p`` a pointer)."""
        import ctypes

        fn = getattr(self.lib.result(), self.symbol)
        types = {"d": ctypes.c_double, "l": ctypes.c_long, "p": ctypes.c_void_p}
        with self.lib.lock:
            fn.argtypes, fn.restype = [types[c] for c in self.lowered.codes], ctypes.c_int
        self.fn = fn

    def __call__(self, memo: dict, scalars, rows, u, out, *args) -> int:
        if self.lowered.scalars and any(isinstance(x, complex) for x in scalars):
            # a plain float gone complex (``(-1)^0.5``): no float operand
            # takes it, so neither does this one
            raise TypeError("a complex value for a real operand of the tile")
        held = memo.get(self)
        r = self.places - 1
        ids = (tuple(map(id, (rows, *args))) if self.places == 1 else
               tuple(map(id, (rows, *args[:r], *args[r], *args[r + 1:]))))
        if held is None or held.ids != ids:
            held = memo[self] = self._pointers(rows, u, out, *args)
        return self.fn(*scalars, *held.head, *held.io(u, out), *held.tail)

    def _pointers(self, rows, u, out, scratch, *args) -> _Checked:
        lowered, boundary = self.lowered, self.places == 1
        reduced = () if boundary else args[self.places - 2]
        operands = args[self.places - 1:]
        check = _Checked(self.symbol, u, rows, scratch, *args[:self.places - 1 - (not boundary)],
                         *reduced, *operands)
        floats, indices = check.floats, check.indices
        nu, n = check.shape
        nrows = nu if rows is None else len(rows)
        check.head = (*check.rows(rows, nu), nu, n)
        values = dict(zip(lowered.kinds, operands))  # (the face loop, the ghost: one each)
        faces, ghost = values.get("L"), values.get("g")
        slots = getattr(ghost, "shape", (0, 0))[-1]  # (a second side read: ghost slots)
        ghost_args = [0, None] if ghost is None else [
            slots, check.private(ghost, (nu, slots), "ghost values")]
        nf, nd = (0, 0) if faces is None else faces.check(n, slots if "g" in values else None)
        if boundary:
            if not isinstance(out, np.ndarray) or out.ndim != 2:
                raise CodegenError("boundary: the output is no C-ordered float64 array")
            check.out_shape = (nu, nd)
            args = [floats(scratch, (nf,), "scratch", True), nd]
        else:
            bcells, bdry = args[:2]
            finish = lowered.shape == "finish"
            if faces is not None and nd != n:
                raise CodegenError("tile: a face loop into other cells")
            bc = np.zeros(0, np.int64) if bcells is None else indices(bcells, n, "boundary cells")
            if (np.diff(bc) <= 0).any():  # (no cell twice: the add is vectorized)
                raise CodegenError(f"{self.symbol}: the boundary cells are not increasing")
            own = indices(args[2], n, "boundary owners") if finish else None
            size = ((nu, len(own)) if finish else (n * (lowered.store != "euler")  # (RK: ``k``)
                    + (nf + n if faces is not None else lowered.folds * n),))
            args = [floats(scratch, size, "owner values" if finish else "scratch", True),
                    len(bc), bc.ctypes.data,
                    None if bdry is None else floats(bdry, (nu, len(bc)), "boundary part"),
                    *((len(own), own.ctypes.data) if finish else ())]
            inputs = (bdry, scratch) if finish else ()
            if finish and np.may_share_memory(scratch, bdry):
                raise CodegenError("finish: the owner values share memory with the boundary part")
            check.apart += [(a.ctypes.data, a.ctypes.data + a.nbytes,
                             "an argument shares memory with the unknown", True) for a in inputs]
            if lowered.store in ("euler", "last"):
                args += check.reductions(self.reductions, reduced, *inputs)
        extent: dict[int, int] = {}  # operand -> its rows
        for i, (kind, value) in enumerate(zip(lowered.kinds, operands)):
            if kind == "m":
                args.append(indices(value, np.iinfo(np.int64).max, "row map").ctypes.data)
                if len(value) != nu:
                    raise CodegenError(f"{self.symbol}: a row map of another length")
            elif kind == "f":
                value.check(n)
                args += [a.ctypes.data for a in value]
                extent[i] = len(value.begin) - 1
            elif kind == "L":
                args += [nf, *(a.ctypes.data for a in faces)]
            elif kind == "r":  # (the FLUX overrides: faces, then one row of values each)
                faces_of, values = value or (np.zeros(0, np.int64), np.zeros((nu, 0)))
                faces_of = indices(faces_of, nf, "override faces")
                args += [len(faces_of), faces_of.ctypes.data,
                         check.private(values, (nu, len(faces_of)), "override values")]
            elif kind == "g":
                args += ghost_args
            elif kind in "eE":
                args.append(check.private(value, (nrows, n if kind == "e" else nf),
                                          "value evaluated before the sweep"))
            elif kind in "US":  # the step's unknown, which only the last stage stores, the sum
                args.append(floats(value, (nu, n), "stage array", kind == "S"))
                if kind == "S" or lowered.store == "stage":
                    check.apart.append((args[-1], args[-1] + value.nbytes, "a stage's output or "
                                        "sum shares memory with the step's unknown", kind == "S"))
            elif kind in "tTnbBkvo":
                dtype = np.bool_ if kind in "bBk" else np.float64
                width = {"n": 1, "k": 1, "T": nf, "B": nf, "o": value.shape[1]}.get(kind, n)
                if not (isinstance(value, np.ndarray) and value.dtype == dtype
                        and value.flags.c_contiguous and value.ndim == 2
                        and value.shape[1] == width) or (
                        kind == "o" and faces.cell.max(initial=-1) >= width):
                    raise CodegenError(f"{self.symbol}: a table of another layout")
                args += [value.ctypes.data, width] if kind == "o" else [value.ctypes.data]
                extent[i] = value.shape[0]
            else:  # a column, a row over the cells or the faces
                args.append(floats(value, ({"c": nu, "h": n}.get(kind, nf),), "coefficient"))
        for user, rows_map in lowered.bounds:
            if operands[rows_map].max(initial=0) >= extent[user]:
                raise CodegenError(f"{self.symbol}: a row map outside its table")
        check.tail = tuple(args)
        return check


__all__ = ["COMPILER", "FLAGS", "Lowered", "Tile", "build", "lower"]
