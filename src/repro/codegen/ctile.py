"""The folded tile as generated C: printer, build and load.

A folded tile (:func:`repro.codegen.emit.emit_interior`) is the statement
folded through the divergence, the volume statement, the forward-Euler
update and the boundary cells' add.  :func:`lower` prints it as one C
function over every row of a sweep; :func:`build` compiles it with the
system C compiler; :class:`Tile` calls it through :mod:`ctypes`, once per
sweep.

*Exact only.*  The printer translates the NumPy tile's own register lines
(the statements as ``emit_sum`` wrote them), one line to one C assignment
per element, every operation on the same operands in the same order: ``+ -
* /``, negation, compare/select and ``sqrt``/``abs`` (correctly rounded,
``-fno-math-errno``, no FMA contraction), so every element keeps its bits.
A sub-expression of plain floats (scalar coefficients, ``dt``, literals,
NumPy functions of them) is evaluated by Python before the call, as the
NumPy tile evaluates it, and passed by value.  At the first operation on
arrays that is not exact — a power other than ``x^-1``, a transcendental,
``min``/``max`` — :func:`lower` returns ``None`` and the tile stays NumPy,
whole; the choice is made from the expression alone.

*One library per equation shape.*  The C text holds no sizes, counts,
coefficients or names the user chose: its identifiers are positional and
every array and size is an argument, among them what tells the targets
apart — the rows swept, in place or into another array, the forward-Euler
update or the right-hand side alone, the boundary cells' add, the columns a
cell rank owns.  Builds are memoised per process by (text, compiler,
flags) and single-flight; the library lands in the compilation cache's
disk directory when one is configured, otherwise in a private temporary
directory that is removed once the library is loaded.  A missing or failing
compiler is :class:`~repro.util.errors.CodegenError` RPR142.
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import NamedTuple

import numpy as np

from repro.util.errors import CodegenError

#: The compiler, found on ``PATH``.
COMPILER = "cc"
#: One set of flags, each there for a reason: ``-ffp-contract=off`` (no
#: fused multiply-add: each product is rounded, as NumPy rounds it),
#: ``-fno-math-errno`` (``sqrt`` is the instruction, not a libm call that
#: may set ``errno``), ``-nostdlib`` (the function calls nothing; faster
#: link), ``-O1``: as fast a tile as ``-O2`` (which vectorizes none of its
#: loops either), built in less time than ``-O2`` or ``-O3`` (EXPERIMENTS.md,
#: "The tile as C").  Nothing that may reorder or contract floating-point
#: operations.
FLAGS = ("-O1", "-shared", "-fPIC", "-pipe", "-nostdlib",
         "-ffp-contract=off", "-fno-math-errno")

_UFUNCS = {"np.add": "+", "np.subtract": "-", "np.multiply": "*", "np.divide": "/"}
_BINOPS = {"Add": "+", "Sub": "-", "Mult": "*", "Div": "/"}
_CMPOPS = {"Gt": ">", "Lt": "<", "GtE": ">=", "LtE": "<=", "Eq": "==", "NotEq": "!="}
_CALLS = {"np.sqrt": "__builtin_sqrt", "np.abs": "__builtin_fabs"}


class Lowered(NamedTuple):
    """A printed tile: the C translation unit, the Python expressions of
    the scalars it takes by value after ``dt`` (``scalars``) and of the
    arrays it reads (``operands``), and per operand how it is passed
    (``kinds``, :meth:`Tile._pointers`)."""

    text: str
    scalars: tuple[str, ...]
    operands: tuple[str, ...]
    kinds: str
    folds: int
    #: ``(operand, row map)``: the row map indexes the operand's rows
    bounds: tuple[tuple[int, int], ...]
    #: the registers of ``sweep_pool`` the tile reads
    registers: int


class _Inexact(Exception):
    """An operation the printer does not lower exactly."""


class _Printer:
    """Translate register lines to per-element C (:func:`lower`)."""

    def __init__(self, tables: dict[str, tuple[str, bool]], sweep: dict[str, int]):
        self.tables, self.sweep = tables, sweep
        self.locals: dict[str, str] = {}
        self.floats: dict[str, object] = {}  # a name assigned a plain float: its tree
        self.scalars: list[str] = []
        self.operands: list[tuple[str, str]] = []  # (kind, Python expression)
        self.params: list[str] = []
        self.rowptrs: list[str] = []
        self.held: dict[tuple, str] = {}
        self.folds: list[tuple[str, str]] = []  # (C prefix, row map)
        self.bounds: set[tuple[int, int]] = set()
        self.registers = 0  # of the sweep pool, read
        self.body: list[str] = []

    # -- operands -------------------------------------------------------------
    def _operand(self, kind: str, source: str, *params: str) -> str:
        name = f"a{len(self.operands)}"
        self.operands.append((kind, source))
        self.params += [p.format(name) for p in params]
        return name

    def _held(self, key: tuple, make) -> str:
        if key not in self.held:
            self.held[key] = make()
        return self.held[key]

    def _map(self, user: str, source: str) -> str:
        """The row map ``source`` (a Python name), read by the operand ``user``."""
        rows = self._held(("m", source), lambda: self._operand(
            "m", source, "const long *restrict {}"))
        self.bounds.add((int(user[1:]), int(rows[1:])))
        return rows

    def _table(self, name: str, space: str, condition: bool) -> str:
        """The element of a table read by the tile's row map."""
        if name in self.sweep:
            self.registers = max(self.registers, self.sweep[name] + 1)
            pool = self._held(("p",), lambda: self._operand(
                "p", "sweep_pool", "const double *restrict {}", "long {}l"))
            ptr = self._rowptr(("s", name), "const double *",
                               f"{pool} + ({self.sweep[name]} * {pool}l + "
                               f"{self._map(pool, f'tmap_{space}')}[g]) * n")
            return f"{ptr}[c]"
        if name not in self.tables:
            raise _Inexact(name)
        kind, boolean = self.tables[name]
        if boolean and not condition:
            raise _Inexact("bool")
        ctype = "const unsigned char" if boolean else "const double"
        wide = kind in ("t", "r")  # a row of cells, else one value per row
        arr = self._held(("t", name), lambda: self._operand(
            ("bk" if boolean else "tn")[not wide], name, ctype + " *restrict {}"))
        rows = self._map(arr, f"tmap_{space}")
        ptr = self._rowptr(("t", name), ctype + " *",
                           f"{arr} + {rows}[g]{' * n' if wide else ''}")
        return f"{ptr}[{'c' if wide else '0'}]"

    def _rowptr(self, key: tuple, ctype: str, value: str) -> str:
        def make() -> str:
            name = f"p{len(self.rowptrs)}"
            self.rowptrs.append(f"{ctype}{name} = {value};")
            return name
        return self._held(("r", *key), make)

    def _local(self, name: str) -> str:
        if name not in self.locals:
            self.locals[name] = f"r{len(self.locals)}"
        return self.locals[name]

    def _scalar(self, node) -> str:
        import ast

        if isinstance(node, ast.Constant) or (
                isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
                and isinstance(node.operand, ast.Constant)):
            value = float(ast.literal_eval(node))
            if not np.isfinite(value):
                raise _Inexact(value)
            return f"({value!r})"
        floats = self.floats

        class Inline(ast.NodeTransformer):
            def visit_Name(self, name):
                return floats.get(name.id, name)

        source = ast.unparse(Inline().visit(node))
        if source not in self.scalars:
            self.scalars.append(source)
        return f"s{self.scalars.index(source) + 1}"

    # -- expressions ----------------------------------------------------------
    def _is_scalar(self, node) -> bool:
        import ast

        if isinstance(node, ast.Constant):
            return True
        if isinstance(node, ast.Name):
            return node.id in ("dt", "DT") or node.id.startswith("coef_") or node.id in self.floats
        if isinstance(node, ast.UnaryOp):
            return self._is_scalar(node.operand)
        if isinstance(node, ast.BinOp):
            return self._is_scalar(node.left) and self._is_scalar(node.right)
        if isinstance(node, ast.Compare):
            return all(map(self._is_scalar, [node.left, *node.comparators]))
        if isinstance(node, ast.Call) and not node.keywords:
            # NumPy on plain floats: evaluated as the NumPy tile evaluates it
            return (isinstance(node.func, ast.Attribute) and ast.unparse(node.func.value) == "np"
                    and all(map(self._is_scalar, node.args)))
        return False

    def expr(self, node, condition: bool = False) -> str:
        """C of one element of ``node``.  A comparison is only read as a
        select's condition or stored as a float (``condition``): NumPy's
        bool arithmetic is no C int arithmetic."""
        import ast

        if self._is_scalar(node):
            if isinstance(node, ast.Compare) and not condition:
                raise _Inexact("bool")
            return self._scalar(node)
        if isinstance(node, ast.Name):
            if node.id == "us":
                return "ur[c]"
            if node.id in self.locals:
                return self.locals[node.id]
            raise _Inexact(node.id)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return f"(-{self.expr(node.operand)})"
        if isinstance(node, ast.BinOp) and type(node.op).__name__ in _BINOPS:
            op = _BINOPS[type(node.op).__name__]
            return f"({self.expr(node.left)} {op} {self.expr(node.right)})"
        if isinstance(node, ast.Compare) and condition and len(node.ops) == 1:
            op = _CMPOPS[type(node.ops[0]).__name__]
            return f"({self.expr(node.left)} {op} {self.expr(node.comparators[0])})"
        if isinstance(node, ast.Subscript):
            return self._subscript(node)
        if isinstance(node, ast.Call) and not node.keywords:
            fn = ast.unparse(node.func)
            args = node.args
            if fn == "np.where" and len(args) == 3:
                cond, then, other = (self.expr(args[0], condition=True),
                                     self.expr(args[1]), self.expr(args[2]))
                return f"({cond} ? {then} : {other})"
            if fn in _CALLS and len(args) == 1:
                return f"{_CALLS[fn]}({self.expr(args[0])})"
            if (fn == "kernels.rows_of" and len(args) == 3
                    and isinstance(args[0], ast.Name) and isinstance(args[1], ast.Name)
                    and args[1].id.startswith("rows_")):
                return self._table(args[0].id, args[1].id[5:], condition)
        raise _Inexact(ast.unparse(node))

    def _subscript(self, node) -> str:
        import ast

        source = ast.unparse(node)
        inner = node.value
        if (isinstance(inner, ast.Subscript) and isinstance(inner.value, ast.Name)
                and inner.value.id.startswith("coef_") and source.endswith("[sel][:, None]")):
            col = self._held(("c", inner.value.id), lambda: self._operand(
                "c", inner.value.id, "const double *restrict {}"))
            return f"{col}[g]"
        if (isinstance(inner, ast.Name) and inner.id.startswith("fcoef_")
                and source.endswith("[None, :]")):
            row = self._held(("h", inner.id), lambda: self._operand(
                "h", inner.id, "const double *restrict {}"))
            return f"{row}[c]"
        raise _Inexact(source)

    # -- statements -----------------------------------------------------------
    def statement(self, line: str) -> None:
        import ast

        (node,) = ast.parse(line).body
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name) \
                    and isinstance(target.slice, ast.Constant) and target.slice.value is ...:
                # a register filled with a value of no ``out=`` form: a
                # comparison lands as 1.0/0.0 in both
                code = self.expr(value, condition=True)
                self.body.append(f"{self._local(target.value.id)} = {code};")
                return
            if isinstance(target, ast.Name):
                if self._is_scalar(value) and target.id not in self.locals:
                    self.floats[target.id] = value  # a plain float: read where used
                    return
                code = self.expr(value)
                self.body.append(f"{self._local(target.id)} = {code};")
                return
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            call = node.value
            fn = ast.unparse(call.func)
            keywords = {k.arg: k.value for k in call.keywords}
            out = keywords.get("out")
            if fn in _UFUNCS and len(call.args) == 2 and set(keywords) == {"out"}:
                a, b = (self.expr(arg) for arg in call.args)
                self.body.append(f"{self._local(out.id)} = ({a} {_UFUNCS[fn]} {b});")
                return
            if fn == "kernels.apply_folded" and len(call.args) == 5:
                name, _, runs, reg, _ = call.args
                fold = self._held(("f", name.id), lambda: self._fold(name.id, runs.id[5:]))
                self.body.append(f"{self._local(reg.id)} = {fold}[c];")
                return
            axis = keywords.get("axis")
            if (fn.endswith(".take") and isinstance(out, ast.Name)
                    and isinstance(axis, ast.Constant) and axis.value == 0
                    and len(call.args) == 1 and isinstance(call.args[0], ast.Subscript)):
                # a known variable's rows by its component map
                cmap = call.args[0].value.id
                array = ast.unparse(call.func.value)
                var = self._held(("v", array), lambda: self._operand(
                    "v", array, "const double *restrict {}"))
                rows = self._map(var, cmap)
                ptr = self._rowptr(("v", array, cmap), "const double *",
                                   f"{var} + {rows}[g] * n")
                self.body.append(f"{self._local(out.id)} = {ptr}[c];")
                return
        raise _Inexact(line)

    def _fold(self, name: str, space: str) -> str:
        op = self._operand("f", name, *(f"const {t} *restrict {{}}{s}" for t, s in (
            ("double", "o"), ("long", "b"), ("long", "e"), ("double", "w"), ("long", "g"))))
        self.folds.append((op, self._map(op, f"tmap_{space}")))
        return f"f{len(self.folds) - 1}"

    # -- the unit -------------------------------------------------------------
    def text(self, div: str, source: str) -> str:
        nf = len(self.folds)
        head = ["double s0", *(f"double s{i + 1}" for i in range(len(self.scalars))),
                "long nrows", "const long *restrict rows", "long n",
                "const double *u", "double *out", "double *restrict w",
                "long nb", "const long *restrict bc", "const double *restrict bd",
                "long no", "const long *restrict own", "long euler", *self.params]
        lines = [
            "/* A folded tile, generated (repro.codegen.ctile): per row g of the",
            "   sweep, the folded operators (the own cell's coefficient, then each",
            "   entry in order), the statements element by element, the explicit",
            "   update (euler) or the right-hand side, the boundary cells' add, and",
            "   the store: every column, or the columns a cell rank owns.  u and out",
            "   may be one array; w is scratch of (folds + 1) rows. */",
            "void tile(" + ",\n          ".join(head) + ")",
            "{",
            "    for (long i = 0; i < nrows; i++) {",
            "        const long g = rows ? rows[i] : i;",
            "        const double *ur = u + g * n;",
            "        double *orow = out + g * n;",
            "        /* o may be ur (in place): element c is read, then written */",
            f"        double *o = own ? w + {nf} * n : orow;",
        ]
        for k, (op, rowmap) in enumerate(self.folds):
            lines += [
                "        {",
                f"            double *restrict f = w + {k} * n;",
                f"            const long r = {rowmap}[g];",
                f"            const double *fo = {op}o + r * n;",
                "            for (long c = 0; c < n; c++) f[c] = ur[c] * fo[c];",
                f"            for (long e = {op}b[r]; e < {op}b[r + 1]; e++) {{",
                f"                const long *E = {op}e + 5 * e;",
                f"                const long lo = E[0], hi = E[1], sh = E[2];",
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
        lines += [f"        const double *restrict f{k} = w + {k} * n;" for k in range(nf)]
        lines += ["        " + p for p in self.rowptrs]
        lines += ["        for (long c = 0; c < n; c++) {"]
        if self.locals:
            lines.append("            double " + ", ".join(self.locals.values()) + ";")
        lines += ["            " + s for s in self.body]
        lines += [
            f"            const double v = ({source} + {div});",
            "            o[c] = euler ? ur[c] + v * s0 : v;",
            "        }",
            "        for (long k = 0; k < nb; k++) o[bc[k]] = o[bc[k]] + bd[g * nb + k];",
            "        for (long k = 0; k < no; k++) orow[own[k]] = o[own[k]];",
            "    }",
            "}",
        ]
        return "\n".join(lines) + "\n"


def lower(folded, volume, tables: dict[str, tuple[str, bool]],
          sweep: dict[str, int]) -> Lowered | None:
    """The C tile of a folded statement ``folded`` and a volume statement
    ``volume`` (``0.0`` when there are no volume terms) — their
    :class:`~repro.codegen.emit.EmittedExpr` register lines — or ``None``
    when a line is not lowered exactly.  ``tables`` gives each table the
    lines may read its shape kind (``'t'``/``'r'``: a row of cells, else a
    column) and whether it is boolean; ``sweep`` each per-sweep definition
    its register in ``sweep_pool``."""
    printer = _Printer(tables, sweep)
    try:
        for line in folded.prelude:
            printer.statement(line)
        printer.statement(f"div = {folded.code}")
        for line in volume.prelude:
            printer.statement(line)
        printer.statement(f"source = {volume.code}")
    except _Inexact:
        return None
    # (either may be a plain float: then it is passed, or printed, as one)
    text = printer.text(*(printer.locals.get(name) or printer._scalar(printer.floats[name])
                          for name in ("div", "source")))
    kinds, operands = zip(*printer.operands) if printer.operands else ((), ())
    return Lowered(text, tuple(printer.scalars), tuple(operands), "".join(kinds),
                   len(printer.folds), tuple(sorted(printer.bounds)), printer.registers)


# ---------------------------------------------------------------------------
# the folded operator, packed for C
# ---------------------------------------------------------------------------

class PackedFold(NamedTuple):
    """A :class:`~repro.fvm.kernels.FoldedOperator` as flat arrays: ``own``
    as it was; the entries of table row ``r`` are rows ``begin[r]`` to
    ``begin[r + 1]`` of ``entries``, each ``(lo, hi, shift, gather,
    weight)``: for ``lo <= c < hi`` it adds ``weights[weight + c - lo]``
    times the value read at ``c + shift`` (``gather < 0``) or at
    ``indices[gather + c - lo]``."""

    own: np.ndarray
    begin: np.ndarray
    entries: np.ndarray
    weights: np.ndarray
    indices: np.ndarray


def pack(op) -> PackedFold:
    """Pack ``op`` (:func:`repro.fvm.kernels.fold_upwind`); what it reads
    is checked where it is handed to the tile (:func:`_check_fold`)."""
    own = np.ascontiguousarray(op.own, dtype=np.float64)
    ncells = own.shape[1]
    begin, entries, weights, indices = [0], [], [], []
    nw = ni = 0
    for row in op.entries:
        for cells, read, w in row:
            lo, hi, _ = cells.indices(ncells)
            width = len(range(read.start, read.stop)) if read.__class__ is slice else len(read)
            if len(w) != hi - lo or width != hi - lo:
                raise CodegenError("folded entry: weights or reads of another width")
            if read.__class__ is slice:
                entries.append((lo, hi, read.start - lo, -1, nw))
            else:
                entries.append((lo, hi, 0, ni, nw))
                indices.append(read)
                ni += len(read)
            weights.append(w)
            nw += len(w)
        begin.append(len(entries))
    return PackedFold(
        own, np.asarray(begin, dtype=np.int64),
        np.asarray(entries, dtype=np.int64).reshape(-1, 5),
        np.concatenate([np.zeros(0), *weights]).astype(np.float64),
        np.concatenate([np.zeros(1, np.int64), *indices]).astype(np.int64)[1:] if indices
        else np.zeros(1, np.int64))


# ---------------------------------------------------------------------------
# build and load
# ---------------------------------------------------------------------------

class _Build:
    """One library of one text: the compiler started, then the function
    loaded.  The compiler reads the text from, and writes its messages and
    the library into, a private directory ``work``, removed once the library
    is loaded (or moved into the cache directory: ``path``)."""

    def __init__(self, text: str, compiler: str, path: str, work: str):
        self.text, self.compiler, self.path, self.work = text, compiler, path, work
        self.lock = threading.Lock()
        self.pid: int | None = None
        self.fn = None
        self.error: CodegenError | None = None

    def start(self) -> None:
        if os.path.exists(self.path):
            return  # the cache directory holds it
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
        """The loaded ``tile`` function (waits for the compiler)."""
        with self.lock:
            if self.fn is None and self.error is None:
                try:
                    self.fn = self._load()
                except CodegenError as exc:
                    self.error = exc
            if self.error is not None:
                raise self.error
            return self.fn

    def _load(self):
        import ctypes

        path = self.path
        if self.pid is not None:
            _, status = os.waitpid(self.pid, 0)
            built = os.path.join(self.work, "tile.so")
            if os.waitstatus_to_exitcode(status) != 0 or not os.path.exists(built):
                with open(os.path.join(self.work, "errors"), errors="replace") as fh:
                    message = fh.read().strip()
                self._remove()
                raise _compiler_error(f"the C compiler {self.compiler!r} failed on a "
                                      f"generated tile: {message}")
            if path.startswith(self.work):
                path = built
            else:
                os.replace(built, path)
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            raise _compiler_error(f"cannot load a built tile: {exc}") from exc
        finally:
            self._remove()
        return lib.tile

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
            raise _compiler_error(f"no C compiler {COMPILER!r} on PATH: a folded tile is "
                                  "built as C (install one, e.g. gcc, and put it on PATH)")
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

        cache_dir = get_cache().cache_dir
        if cache_dir is not None:
            directory = os.path.join(str(cache_dir), "tiles")
            os.makedirs(directory, exist_ok=True)
            work = tempfile.mkdtemp(prefix=".build-", dir=directory)
            path = os.path.join(directory, f"{key[:32]}.so")
        else:
            work = tempfile.mkdtemp(prefix="repro-tile-")
            path = os.path.join(work, "tile.so")
        held = _Build(text, compiler, path, work)
        held.start()
        _BUILDS[key] = held
    return held


#: C parameters per operand kind (:class:`Lowered`): a row map, a folded
#: operator, the sweep pool, a table (float/bool, a row of cells or one value
#: per row), a column coefficient, a row over the cells, a known variable
_PARAMS = {"m": "p", "f": "ppppp", "p": "pl", "t": "p", "n": "p", "b": "p", "k": "p",
           "c": "p", "h": "p", "v": "p"}


class Tile:
    """The generated tile's foreign function, called once per sweep.

    ``TILE(memo, scalars, euler, rows, u, out, scratch, bcells, bdry,
    owned, *operands)``: ``scalars`` by value (``dt`` first), the rest
    resolved to pointers — dtype, layout and every index bound checked — the
    first time that set of objects is seen, and reused while the objects are
    the same.  They are held in ``memo`` (the state's ``plans``, a device
    kernel's ``TILE_PLANS``) with the objects themselves, so no identity is
    reused; a restore, a repartition or a migration hands over new objects
    and is resolved again."""

    def __init__(self, lib: _Build, lowered: Lowered):
        self.lib, self.lowered = lib, lowered
        self.fn = None

    def wait(self) -> None:
        """Wait for the library and declare the function's signature."""
        import ctypes

        fn = self.lib.result()
        lowered = self.lowered
        types = {"d": ctypes.c_double, "l": ctypes.c_long, "p": ctypes.c_void_p}
        codes = ("d" * (1 + len(lowered.scalars)) + "lpl" + "ppp" + "lpp" + "lp" + "l"
                 + "".join(_PARAMS[k] for k in lowered.kinds))
        with self.lib.lock:
            fn.argtypes = [types[c] for c in codes]
            fn.restype = None
        self.fn = fn

    def __call__(self, memo: dict, scalars, *arrays) -> None:
        if self.lowered.scalars and any(isinstance(x, complex) for x in scalars):
            # a plain float gone complex (``(-1)^0.5``): the NumPy tile
            # refuses to store it in a float register, so does this one
            raise TypeError("a complex value for a real operand of the tile")
        held = memo.get(Tile)
        if held is None:
            held = memo[Tile] = {}  # (held with the state's tables, gone with it)
        key = tuple(map(id, arrays))
        pointers = held.get(key)
        if pointers is None:
            if len(held) >= 4:  # e.g. the stages of an RK step: fresh arrays
                held.clear()
            pointers = held[key] = self._pointers(*arrays)
        self.fn(*scalars, *pointers[0])

    def _pointers(self, euler, rows, u, out, scratch, bcells, bdry, owned,
                  *operands) -> tuple:
        keep: list = [euler, rows, u, out, scratch, bcells, bdry, owned, *operands]

        def floats(a, shape, what: str, write: bool = False) -> int:
            if not (isinstance(a, np.ndarray) and a.dtype == np.float64
                    and a.flags.c_contiguous and a.shape == tuple(shape)
                    and (a.flags.writeable or not write)):
                raise CodegenError(f"tile: the {what} is no C-ordered float64 "
                                   f"{tuple(shape)} array")
            return a.ctypes.data

        def indices(a, bound: int, what: str) -> np.ndarray:
            a = np.ascontiguousarray(a, dtype=np.int64)
            if a.ndim != 1 or (len(a) and not (a.min() >= 0 and a.max() < bound)):
                raise CodegenError(f"tile: {what} out of range")
            keep.append(a)
            return a

        nu, n = u.shape
        if isinstance(rows, slice):
            rows = None if rows == slice(None) else np.arange(nu)[rows]
        rows = None if rows is None else indices(rows, nu, "rows")
        bc = np.zeros(0, np.int64) if bcells is None else indices(bcells, n, "boundary cells")
        own = None if owned is None else indices(owned, n, "owned columns")
        folds = self.lowered.folds
        args = [nu if rows is None else len(rows), None if rows is None else rows.ctypes.data,
                n, floats(u, (nu, n), "unknown"), floats(out, (nu, n), "output", True),
                floats(scratch, ((folds + 1) * n,), "scratch", True),
                len(bc), bc.ctypes.data,
                None if bdry is None else floats(bdry, (nu, len(bc)), "boundary part"),
                0 if own is None else len(own), None if own is None else own.ctypes.data,
                int(bool(euler))]
        extent: dict[int, int] = {}  # operand -> its rows
        for i, (kind, value) in enumerate(zip(self.lowered.kinds, operands)):
            if kind == "m":
                args.append(indices(value, np.iinfo(np.int64).max, "row map").ctypes.data)
                if len(value) != nu:
                    raise CodegenError("tile: a row map of another length")
            elif kind == "f":
                _check_fold(value, n)
                args += [a.ctypes.data for a in value]
                extent[i] = len(value.begin) - 1
            elif kind == "p":
                if value.ndim != 3 or value.shape[0] < self.lowered.registers:
                    raise CodegenError("tile: a sweep pool of another layout")
                args += [floats(value, value.shape[:2] + (n,), "sweep pool"), value.shape[1]]
                extent[i] = value.shape[1]
            elif kind in "tnbkv":
                dtype = np.bool_ if kind in "bk" else np.float64
                if not (isinstance(value, np.ndarray) and value.dtype == dtype
                        and value.flags.c_contiguous and value.ndim == 2
                        and value.shape[1] == (1 if kind in "nk" else n)):
                    raise CodegenError("tile: a table of another layout")
                args.append(value.ctypes.data)
                extent[i] = value.shape[0]
            else:
                args.append(floats(value, (nu,) if kind == "c" else (n,), "coefficient"))
        for user, rows_map in self.lowered.bounds:
            if operands[rows_map].max(initial=0) >= extent[user]:
                raise CodegenError("tile: a row map outside its table")
        return tuple(args), keep


def _check_fold(fold: PackedFold, n: int) -> None:
    """Every index of a packed operator (:func:`pack` checked what it
    packed; this checks the operator handed over) inside its arrays."""
    own, begin, entries, weights, indices = fold
    layout = [(own, np.float64, 2), (begin, np.int64, 1), (entries, np.int64, 2),
              (weights, np.float64, 1), (indices, np.int64, 1)]
    if not all(isinstance(a, np.ndarray) and a.dtype == t and a.ndim == d
               and a.flags.c_contiguous for a, t, d in layout) \
            or own.shape[1] != n or len(begin) != len(own) + 1 or entries.shape[1] != 5:
        raise CodegenError("tile: a folded operator over other cells")
    lo, hi, shift, gather, weight = entries.T
    width = hi - lo
    if not ((np.diff(begin) >= 0).all() and begin[0] == 0 and begin[-1] == len(entries)
            and (lo >= 0).all() and (width >= 0).all() and (hi <= n).all()
            and (weight >= 0).all() and (weight + width <= len(weights)).all()
            and np.where(gather < 0, (lo + shift >= 0) & (hi + shift <= n),
                         gather + width <= len(indices)).all()
            and (len(indices) == 0 or (indices.min() >= 0 and indices.max() < n))):
        raise CodegenError("tile: a folded operator reads outside its arrays")


__all__ = ["COMPILER", "FLAGS", "Lowered", "PackedFold", "Tile", "build", "lower", "pack"]
