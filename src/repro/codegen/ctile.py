"""The folded tile as generated C: printer, build and load.

A folded tile (:func:`repro.codegen.emit.emit_interior`) is the statement
folded through the divergence, the volume statement, the forward-Euler
update and the boundary cells' add.  :func:`lower` prints it as one C
function over every row of a sweep; :func:`build` compiles it with the
system C compiler; :class:`Tile` calls it through :mod:`ctypes`, once per
sweep, its arguments resolved once per state (the state's ``plans``).

*Exact only.*  The emitter records each statement of a tile as data
(:class:`~repro.codegen.emit.Stmt`, ``register := op(operands)``) and
prints it as NumPy; :func:`lower` prints the same record as C, one
assignment per element, every operation on the same operands in the same
order, spelt as the one table of operations gives it
(:data:`~repro.codegen.emit.OPS`): ``+ - * /``, compare/select and
``sqrt``/``abs``, correctly rounded (``-fno-math-errno``, no FMA
contraction), so every element keeps its bits.  A sub-expression of plain
floats is evaluated by Python before the call, as the NumPy tile evaluates
it, and passed by value.  An operation on arrays the table gives no C
spelling — a power other than ``x^-1``, a transcendental, ``min``/``max`` —
keeps the tile NumPy, whole (:func:`lower` returns ``None``).

*At SIMD width.*  The store is the program's stepper, fixed when the text
is printed — ``ur[c] + v * s0`` for a forward-Euler sweep, ``v`` for an RK
right-hand side — so no loop has a branch, and every loop is vectorized
(:data:`FLAGS`): one lane is one element, so no operation of an element
moves.

*The declared reductions.*  A forward-Euler tile also accumulates the
post-step callbacks' declared reductions (:class:`~repro.dsl.entities.
Reduction`) of each row it stored, while the row is hot: per output (the
``reduced`` arrays, zeroed at the start) a row map ``group`` and a
per-component coefficient ``weight``, rows in sweep order — the terms, in
the order, of :func:`repro.fvm.kernels.reduce_rows`.  A device kernel hands
it none: its ``finish_step``, one fixed C function (:data:`FINISH`), reduces.

*One library per equation shape.*  The C text holds no sizes, counts,
coefficients or names the user chose: its identifiers are positional and
every array and size is an argument, among them what tells the targets
apart — the rows swept, in place or into another array, the boundary
cells' add, the columns a cell rank owns, the reductions.  Builds are
memoised per process by (text, compiler, flags) and single-flight; the
library lands in the compilation cache's disk directory when one is
configured and writable (one there the loader refuses is built again and
replaced), otherwise in a private temporary directory removed once the
library is loaded.  A missing or failing compiler is
:class:`~repro.util.errors.CodegenError` RPR142.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from typing import NamedTuple

import numpy as np

from repro.codegen.emit import COMPARISONS, OPS, Leaf, Op, Stmt, Table
from repro.fvm.kernels import FoldedOperator
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
    #: stores the forward-Euler update and reduces it (else the RHS)
    euler: bool


class _Inexact(Exception):
    """An operation the printer does not lower exactly."""


class _Printer:
    """Print a tile's statements as per-element C (:func:`lower`)."""

    def __init__(self):
        self.locals: dict[str, str] = {}
        self.floats: dict[str, object] = {}  # a name bound to a plain float: its term
        self.scalars: dict[str, str] = {}  # a Python expression: its C name
        self.operands: list[tuple[str, str]] = []  # (kind, Python expression)
        self.params: list[str] = []
        self.rowptrs: list[str] = []
        self.held: dict[object, str] = {}  # an operand or a row pointer: its C name
        self.folds: dict[str, str] = {}  # a folded operator: its row map
        self.bounds: set[tuple[int, int]] = set()
        self.registers = 0  # of the sweep pool, read
        self.body: list[str] = []

    # -- operands -------------------------------------------------------------
    def _operand(self, kind: str, source: str, *params: str) -> str:
        """The argument ``source`` (Python), passed once as ``params`` (C)."""
        if (kind, source) not in self.held:
            name = self.held[kind, source] = f"a{len(self.operands)}"
            self.operands.append((kind, source))
            self.params += [p.format(name) for p in params]
        return self.held[kind, source]

    def _map(self, user: str, source: str) -> str:
        """The row map ``source`` (a Python name), read by the operand ``user``."""
        rows = self._operand("m", source, "const long *restrict {}")
        self.bounds.add((int(user[1:]), int(rows[1:])))
        return rows

    def _table(self, t: Table, condition: bool) -> str:
        """The element of a table read by the tile's row map."""
        name, space = t.h.name, f"tmap_{t.h.rows}"
        if t.test and not condition:
            raise _Inexact("bool")
        if t.pool >= 0:  # held in the sweep pool
            self.registers = max(self.registers, t.pool + 1)
            ctype = "const double"
            arr = self._operand("p", "sweep_pool", "const double *restrict {}", "long {}l")
            row = f"({t.pool} * {arr}l + {self._map(arr, space)}[g]) * n"
        else:
            ctype = "const unsigned char" if t.test else "const double"
            arr = self._operand(("bk" if t.test else "tn")[not t.wide], name,
                                ctype + " *restrict {}")
            row = f"{self._map(arr, space)}[g]{' * n' if t.wide else ''}"
        return f"{self._rowptr(ctype + ' *', f'{arr} + {row}')}[{'c' if t.wide else '0'}]"

    def _rowptr(self, ctype: str, value: str) -> str:
        """A pointer set once per row ``g`` of the sweep."""
        if value not in self.held:
            self.held[value] = f"p{len(self.rowptrs)}"
            self.rowptrs.append(f"{ctype}{self.held[value]} = {value};")
        return self.held[value]

    def _local(self, name: str) -> str:
        return self.locals.setdefault(name, f"r{len(self.locals)}")

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
        before the call, as the NumPy tile does)."""
        if isinstance(t, float):
            return f"({t!r})"
        return self.scalars.setdefault(str(t), f"s{len(self.scalars) + 1}")

    # -- terms and statements -------------------------------------------------
    def expr(self, t, condition: bool = False) -> str:
        """C of one element of ``t``.  A comparison is only read as a
        select's condition or stored as a float (``condition``): NumPy's
        bool arithmetic is no C int arithmetic."""
        plain = self._plain(t)
        if plain is not None:
            if isinstance(t, Op) and t.op in COMPARISONS and not condition:
                raise _Inexact("bool")
            return self._scalar(plain)
        if isinstance(t, Table):
            return self._table(t, condition)
        if isinstance(t, Leaf) and t.kind == "u":
            return "ur[c]"
        if isinstance(t, Leaf) and t.name in self.locals:
            return self.locals[t.name]
        if isinstance(t, Leaf) and t.kind in "ch":  # a column, a row over the cells
            arg = self._operand(t.kind, t.name, "const double *restrict {}")
            return f"{arg}[{'g' if t.kind == 'c' else 'c'}]"
        c = isinstance(t, Op) and OPS[t.op][3]
        if not c or (t.op in COMPARISONS and not condition):
            raise _Inexact(t)
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

    # -- the unit -------------------------------------------------------------
    def text(self, div: str, source: str, euler: bool) -> str:
        nf = len(self.folds)
        reduce = ["long nq", "double *const *restrict ro", "const long *restrict rn",
                  "const long *restrict rg", "const double *restrict rw"]
        head = ["double s0", *(f"double s{i + 1}" for i in range(len(self.scalars))),
                "long nrows", "const long *restrict rows", "long nu", "long n",
                "const double *u", "double *out", "double *restrict w",
                "long nb", "const long *restrict bc", "const double *restrict bd",
                "long no", "const long *restrict own", *reduce * euler, *self.params]
        lines = [
            "/* A folded tile, generated (repro.codegen.ctile): per row g of the",
            "   sweep, the folded operators (the own cell's coefficient, then each",
            *(["   entry in order), the statements element by element, the explicit",
               "   update u + v * dt, the boundary cells' add, the store (every column,",
               "   or the columns a cell rank owns), then each declared reduction of",
               "   the stored row.  u and out may be one array; w is scratch of",
               "   (folds + 1) rows. */"] if euler else
              ["   entry in order), the statements element by element, the right-hand",
               "   side v, the boundary cells' add and the store (every column, or the",
               "   columns a cell rank owns).  w is scratch of (folds + 1) rows. */"]),
            "void tile(" + ",\n          ".join(head) + ")",
            "{",
        ]
        if euler:
            lines += [
                "    for (long q = 0; q < nq; q++)",
                "        for (long k = 0; k < rn[q]; k++) ro[q][k] = 0.0;",
            ]
        lines += [
            "    for (long i = 0; i < nrows; i++) {",
            "        const long g = rows ? rows[i] : i;",
            "        const double *ur = u + g * n;",
            "        double *orow = out + g * n;",
            "        /* o may be ur (in place): element c is read, then written */",
            f"        double *o = own ? w + {nf} * n : orow;",
        ]
        for k, (op, rowmap) in enumerate(self.folds.items()):
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
            f"            o[c] = {'ur[c] + v * s0' if euler else 'v'};",
            "        }",
            "        for (long k = 0; k < nb; k++) o[bc[k]] = o[bc[k]] + bd[g * nb + k];",
            "        for (long k = 0; k < no; k++) orow[own[k]] = o[own[k]];",
        ]
        if euler:
            lines += [
                "        for (long q = 0; q < nq; q++) {",
                "            double *restrict e = ro[q] + rg[q * nu + g] * n;",
                "            const double we = rw[q * nu + g];",
                "            for (long c = 0; c < n; c++) e[c] = e[c] + orow[c] * we;",
                "        }",
            ]
        lines += ["    }", "}"]
        return "\n".join(lines) + "\n"


def lower(folded, volume, euler: bool) -> Lowered | None:
    """The C tile of a folded and a volume statement (``0.0`` when there are
    no volume terms), :class:`~repro.codegen.emit.EmittedExpr`, or ``None``
    when an operation has no exact C form: with ``euler`` it stores the
    forward-Euler update and reduces the stored rows, else the right-hand
    side."""
    printer = _Printer()
    try:
        for s in [*folded.statements, Stmt("div", Op("=", (folded.term,))),
                  *volume.statements, Stmt("source", Op("=", (volume.term,)))]:
            printer.statement(s)
    except _Inexact:
        return None
    text = printer.text(*(printer.expr(Leaf("r", name)) for name in ("div", "source")), euler)
    kinds, operands = zip(*printer.operands) if printer.operands else ((), ())
    return Lowered(text, tuple(printer.scalars), tuple(operands), "".join(kinds),
                   len(printer.folds), tuple(sorted(printer.bounds)), printer.registers, euler)


# ---------------------------------------------------------------------------
# build and load
# ---------------------------------------------------------------------------

class _Build:
    """One library of one text: the one the cache directory holds, loaded,
    or the compiler started, then the library loaded.  The compiler reads
    the text from, and writes its messages and the library into, a private
    directory ``work``, removed once the library is loaded (or moved into
    the cache directory: ``path``)."""

    def __init__(self, text: str, compiler: str, path: str, work: str):
        self.text, self.compiler, self.path, self.work = text, compiler, path, work
        self.lock = threading.Lock()
        self.pid: int | None = None
        self.dll = None
        self.error: CodegenError | None = None

    def start(self, stats) -> None:
        """Load the library at ``path`` or start the compiler: one the loader
        refuses is a miss, built again and replaced (``stats.disk_errors``)."""
        import ctypes

        if os.path.exists(self.path):
            try:
                self.dll = ctypes.CDLL(self.path)
                self._remove()
                return
            except OSError:
                stats.disk_errors += 1
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
        """The loaded library (waits for the compiler)."""
        with self.lock:
            if self.dll is None and self.error is None:
                try:
                    self.dll = self._load()
                except CodegenError as exc:
                    self.error = exc
            if self.error is not None:
                raise self.error
            return self.dll

    def _load(self):
        import ctypes

        path = self.path
        _, status = os.waitpid(self.pid, 0)
        built = os.path.join(self.work, "tile.so")
        if os.waitstatus_to_exitcode(status) != 0 or not os.path.exists(built):
            with open(os.path.join(self.work, "errors"), errors="replace") as fh:
                message = fh.read().strip()
            self._remove()
            raise _compiler_error(f"the C compiler {self.compiler!r} failed on a "
                                  f"generated function: {message}")
        if path.startswith(self.work):
            path = built
        else:
            os.replace(built, path)  # (atomic: over an unloadable one too)
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            raise _compiler_error(f"cannot load a built library: {exc}") from exc
        finally:
            self._remove()
        return lib

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
        held = _Build(text, compiler, path, work)
        held.start(cache.stats)
        _BUILDS[key] = held
    return held


#: C parameters per operand kind (:class:`Lowered`): a row map, a folded
#: operator, the sweep pool, a table (float/bool, a row of cells or one value
#: per row), a column coefficient, a row over the cells, a known variable
_PARAMS = {"m": "p", "f": "ppppp", "p": "pl", "t": "p", "n": "p", "b": "p", "k": "p",
           "c": "p", "h": "p", "v": "p"}


class _Foreign:
    """A function ``symbol`` of a built library, its parameters ``codes``
    (``d`` a double, ``l`` a long, ``p`` a pointer)."""

    symbol = codes = ""

    def __init__(self, lib: _Build):
        self.lib, self.fn = lib, None

    def wait(self) -> None:
        """Wait for the library and declare the function's signature."""
        import ctypes

        fn = getattr(self.lib.result(), self.symbol)
        types = {"d": ctypes.c_double, "l": ctypes.c_long, "p": ctypes.c_void_p}
        with self.lib.lock:
            fn.argtypes, fn.restype = [types[c] for c in self.codes], None
        self.fn = fn


class _Checked:
    """A call site's arguments but the unknown and the output, checked
    (dtype, C order, shape, every index in range) and resolved to the
    pointers passed around those two (``head``, ``tail``), with what they
    came from (``keep``: an equal id in ``ids`` is the same object)."""

    def __init__(self, who: str, u, *objects):
        if not (isinstance(u, np.ndarray) and u.ndim == 2):
            raise CodegenError(f"{who}: the unknown is no C-ordered float64 array")
        self.who, self.shape, self.ids = who, u.shape, tuple(map(id, objects))
        self.keep, self.apart, self.head, self.tail = list(objects), [], (), ()

    def io(self, u, out) -> tuple[int, int]:
        """The unknown's and the output's addresses, checked on every call:
        C-ordered float64 of the held shape, the output writeable, neither
        overlapping what is ``apart`` from them."""
        for a in (u, out):
            if not ((a.__class__ is np.ndarray or isinstance(a, np.ndarray)) and a.dtype
                    == np.float64 and a.flags.c_contiguous and a.shape == self.shape
                    and (a is not out or a.flags.writeable)):
                raise CodegenError(f"{self.who}: the {'unknown' if a is u else 'output'} "
                                   f"is no C-ordered float64 {self.shape} array")
        pu = u.__array_interface__["data"][0]
        po = pu if out is u else out.__array_interface__["data"][0]
        for lo, hi, why in self.apart:
            if lo < pu + u.nbytes and pu < hi or lo < po + out.nbytes and po < hi:
                raise CodegenError(f"{self.who}: {why}")
        return pu, po

    def floats(self, a, shape, what: str, write: bool = False) -> int:
        if not (isinstance(a, np.ndarray) and a.dtype == np.float64
                and a.flags.c_contiguous and a.shape == tuple(shape)
                and (a.flags.writeable or not write)):
            raise CodegenError(f"{self.who}: the {what} is no C-ordered float64 "
                               f"{tuple(shape)} array")
        return a.ctypes.data

    def indices(self, a, bound: int, what: str) -> np.ndarray:
        a = np.ascontiguousarray(a, dtype=np.int64)
        if a.ndim != 1 or (len(a) and not (a.min() >= 0 and a.max() < bound)):
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
                               "a reduction over other rows, or into its input"))
        ro = np.array([o.ctypes.data for _, o in pairs], dtype=np.uintp)
        rn = np.array([r.rows * n for r, _ in pairs], dtype=np.int64)
        rg = np.concatenate([np.zeros(0, np.int64),
                             *(self.indices(r.group, r.rows, "reduction rows")
                               for r, _ in pairs)])
        rw = np.concatenate([np.zeros(0), *(r.weight for r, _ in pairs)])
        self.keep += [ro, rn, rg, rw]
        return [len(pairs), ro.ctypes.data, rn.ctypes.data, rg.ctypes.data, rw.ctypes.data]


class Tile(_Foreign):
    """The generated tile's foreign function, called once per sweep.

    ``TILE(memo, scalars, rows, u, out, scratch, bcells, bdry, owned,
    reduced, *operands)``: ``scalars`` by value (``dt`` first), ``u`` and
    ``out`` checked on every call, the rest resolved once (:class:`_Checked`)
    and held in ``memo``, the state's ``plans``: one entry per call site,
    reused while each object is the one passed.  Rows are the state's
    (``None``, a band rank's ``owned_comps``), so a step resolves nothing; a
    degraded step's workspace, a restore or a repartition resolves again.
    ``reduced`` is an Euler tile's outputs of the declared ``reductions``
    (:class:`~repro.dsl.entities.Reduction`), or empty."""

    symbol = "tile"

    def __init__(self, lib: _Build, lowered: Lowered, reductions=()):
        super().__init__(lib)
        self.lowered, self.reductions = lowered, tuple(reductions)
        self.codes = ("d" * (1 + len(lowered.scalars)) + "lpll" + "ppp" + "lpp" + "lp"
                      + "lpppp" * lowered.euler + "".join(_PARAMS[k] for k in lowered.kinds))

    def __call__(self, memo: dict, scalars, rows, u, out, *args) -> None:
        if self.lowered.scalars and any(isinstance(x, complex) for x in scalars):
            # a plain float gone complex (``(-1)^0.5``): the NumPy tile
            # refuses to store it in a float register, so does this one
            raise TypeError("a complex value for a real operand of the tile")
        held = memo.get(self)  # (``args[4]``: the reduction outputs)
        if held is None or held.ids != tuple(map(id, (rows, *args[:4], *args[4], *args[5:]))):
            held = memo[self] = self._pointers(rows, u, *args)
        self.fn(*scalars, *held.head, *held.io(u, out), *held.tail)

    def _pointers(self, rows, u, scratch, bcells, bdry, owned, reduced,
                  *operands) -> _Checked:
        check = _Checked("tile", u, rows, scratch, bcells, bdry, owned, *reduced, *operands)
        floats, indices = check.floats, check.indices
        nu, n = check.shape
        bc = np.zeros(0, np.int64) if bcells is None else indices(bcells, n, "boundary cells")
        own = None if owned is None else indices(owned, n, "owned columns")
        check.head = (*check.rows(rows, nu), nu, n)
        args = [floats(scratch, ((self.lowered.folds + 1) * n,), "scratch", True),
                len(bc), bc.ctypes.data,
                None if bdry is None else floats(bdry, (nu, len(bc)), "boundary part"),
                0 if own is None else len(own), None if own is None else own.ctypes.data]
        if self.lowered.euler:
            args += check.reductions(self.reductions, reduced)
        elif len(reduced):
            raise CodegenError("tile: a right-hand side reduces nothing")
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
        check.tail = tuple(args)
        return check


#: What ends a device-placed step (:class:`Finish`), one fixed text: per row
#: of the sweep, ``u + (du * dt)`` in the boundary cells' columns (no other
#: column touched), the tile's reduction loop, then the owner values of the
#: boundary faces — of every row, a band rank's others too.
FINISH = """\
/* finish_step, fixed (repro.codegen.ctile.FINISH); u aliases nothing. */
void finish(double dt, long nrows, const long *restrict rows, long nu, long n,
            double *restrict u, long nb, const long *restrict bc,
            const double *restrict du, long nw, const long *restrict bo,
            double *restrict ub, long nq, double *const *restrict ro,
            const long *restrict rn, const long *restrict rg,
            const double *restrict rw)
{
    for (long q = 0; q < nq; q++)
        for (long k = 0; k < rn[q]; k++) ro[q][k] = 0.0;
    for (long i = 0; i < nrows; i++) {
        const long g = rows ? rows[i] : i;
        double *restrict ur = u + g * n;
        const double *restrict d = du + g * nb;
        for (long k = 0; k < nb; k++) ur[bc[k]] = ur[bc[k]] + d[k] * dt;
        for (long q = 0; q < nq; q++) {
            double *restrict e = ro[q] + rg[q * nu + g] * n;
            const double we = rw[q * nu + g];
            for (long c = 0; c < n; c++) e[c] = ur[c] * we + e[c];
        }
        for (long k = 0; k < nw; k++) ub[g * nw + k] = ur[bo[k]];
    }
    for (long g = 0; rows && g < nu; g++)
        for (long k = 0; k < nw; k++) ub[g * nw + k] = u[g * n + bo[k]];
}
"""


class Finish(_Foreign):
    """``finish_step(memo, u, du_bdry, u_bdry, reduced, rows=None)``:
    :data:`FINISH` over ``u`` (the device's ``u_new`` or the host's unknown)
    with the step's ``dt``, the boundary cells and the boundary faces'
    owners; ``rows``, a band rank's own.  ``u`` is checked on every call,
    the rest resolved once per state and held in ``memo`` as :class:`Tile`'s."""

    symbol = "finish"
    codes = "dlpllplpplpplpppp"

    def __init__(self, lib: _Build, dt: float, bcells, bowner, reductions=()):
        super().__init__(lib)
        self.dt, self.bcells, self.bowner = float(dt), bcells, bowner
        self.reductions = tuple(reductions)

    def __call__(self, memo: dict, u, du_bdry, u_bdry, reduced, rows=None) -> None:
        held = memo.get(self)
        if held is None or held.ids != tuple(map(id, (rows, du_bdry, u_bdry, *reduced))):
            held = memo[self] = self._pointers(u, du_bdry, u_bdry, reduced, rows)
        self.fn(*held.head, held.io(u, u)[0], *held.tail)

    def _pointers(self, u, du, ub, reduced, rows) -> _Checked:
        check = _Checked("finish", u, rows, du, ub, *reduced)
        nu, n = check.shape
        bc = check.indices(self.bcells, n, "boundary cells")
        bo = check.indices(self.bowner, n, "boundary owners")
        if (np.diff(bc) <= 0).any():  # (no cell twice: the add is vectorized)
            raise CodegenError("finish: the boundary cells are not increasing")
        check.head = (self.dt, *check.rows(rows, nu), nu, n)
        args = [len(bc), bc.ctypes.data, check.floats(du, (nu, len(bc)), "boundary part"),
                len(bo), bo.ctypes.data, check.floats(ub, (nu, len(bo)), "owner values", True)]
        if np.may_share_memory(ub, du):
            raise CodegenError("finish: the owner values share memory with the boundary part")
        check.apart += [(a.ctypes.data, a.ctypes.data + a.nbytes,
                         "an argument shares memory with the unknown") for a in (du, ub)]
        check.tail = (*args, *check.reductions(self.reductions, reduced, du, ub))
        return check


def _check_fold(fold: FoldedOperator, n: int) -> None:
    """Every index of the folded operator handed over inside its arrays."""
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


__all__ = ["COMPILER", "FINISH", "FLAGS", "Finish", "Lowered", "Tile", "build", "lower"]
