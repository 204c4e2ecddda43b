"""A small vector VM executing fused programs from :mod:`repro.ir.fuse`.

Each instruction applies one whole-array NumPy operation, so a statement
that used to allocate a temporary per expression node now runs in a single
pass over a bounded register file.  Registers keep their backing float64
arrays between ``run()`` calls and arithmetic writes in place with
``out=`` whenever shapes/dtypes allow, eliminating per-step allocation in
the hot cell/band/direction loops.

Two execution engines share one semantics:

* ``run()`` — the fast path: the program is specialised once, at VM
  construction, into straight-line Python source (registers become local
  variables, opcode dispatch disappears) and compiled.  This is what
  generated kernels call.
* ``run_interpreted()`` — a direct instruction-by-instruction interpreter
  of the same program.  It exists as the cross-implementation oracle for
  the differential tests: ``run`` and ``run_interpreted`` must agree
  bit-for-bit on every program.

Bit-identity contract: every opcode reproduces exactly what
:func:`repro.symbolic.evaluate.evaluate` and the unfused emitted source
compute — Python operators (not hand-rolled ufunc variants) for mixed
scalar/array semantics, the ``exponent == -1 → 1.0 / base`` power rule,
and ``np.where`` only for array conditions.  The ``out=`` fast path is
restricted to elementwise float64 ufuncs writing VM-owned scratch of the
exact broadcast shape, which cannot change a single bit of the result.

Thread safety: SPMD rank programs run on real threads and may share one
generated namespace, so all register state lives in ``threading.local``.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Mapping
from typing import Any

import numpy as np

from repro.ir.fuse import FusedProgram
from repro.symbolic.functions import function_callables
from repro.util.errors import CodegenError

_F64 = np.dtype(np.float64)

_CMP_OPS: dict[str, Callable[[Any, Any], Any]] = {
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

#: opcodes whose results are fresh float64 arrays the VM may adopt as
#: scratch and later overwrite via ``out=`` (pure elementwise arithmetic)
_ADOPTABLE = ("add", "mul", "recip", "pow_const")

#: The fast path only adopts scratch for arrays at least this large: for
#: small operands the ufunc ``out=`` keyword costs more than the
#: allocation it saves.  Purely a speed heuristic — both paths are
#: bit-identical (the interpreted oracle adopts unconditionally, which is
#: exactly what lets the differential tests pin the ``out=`` path down).
_MIN_INPLACE = 4096


def _fit(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray | None:
    """``buf``, or its leading rows, as an ``out=`` target of ``shape``.

    Generated kernels sweep row tiles, and the last tile of a sweep is
    usually shorter than the one the scratch was adopted from: it runs in
    a view of the same buffer instead of evicting it, so a fused kernel
    allocates nothing after its first tile.  None when ``shape`` differs
    in more than a shorter leading axis.
    """
    if buf.shape == shape:
        return buf
    if (len(shape) == buf.ndim and shape[1:] == buf.shape[1:]
            and 0 < shape[0] < buf.shape[0]):
        return buf[: shape[0]]
    return None


def _out_for(buf: np.ndarray | None, *operands: Any) -> np.ndarray | None:
    """The VM-owned ``out=`` target of one elementwise float64 op, if any."""
    if buf is None or not all(
        type(a) is np.ndarray and a.dtype is _F64 for a in operands
    ):
        return None
    return _fit(buf, np.broadcast_shapes(*(a.shape for a in operands)))


#: Compiled specialisations keyed by generated source (programs repeat
#: across binds of the same cached artifact; compiling once is enough).
_CODE_CACHE: dict[str, Any] = {}


def _specialize(program: FusedProgram) -> tuple[str, dict[str, Any]]:
    """Unroll ``program`` into straight-line Python source.

    Registers become local variables ``r0..rN``; the opcode dispatch loop
    disappears entirely.  Every conditional of the interpreter (the
    ``out=`` scratch gate, power's ``-1`` rule, ``where``'s scalar branch)
    is emitted verbatim so the compiled function is bit-identical to
    ``run_interpreted`` by construction.  The common all-shapes-equal case
    short-circuits before ``np.broadcast_shapes`` — same acceptance set,
    cheaper test.  Returns ``(source, globals)`` ready for ``exec``.
    """
    consts: list[Any] = []

    def const_ref(value: Any) -> str:
        consts.append(value)
        return f"_consts[{len(consts) - 1}]"

    lines = ["def _fused_run(slots, bufs):"]
    emit = lines.append
    names: dict[str, Any] = {}
    for instr in program.instructions:
        d = instr.dst
        op = instr.op
        if op == "load":
            emit(f"    r{d} = slots[{instr.imm}]")
        elif op == "const":
            emit(f"    r{d} = {const_ref(instr.imm)}")
        elif op in _ADOPTABLE:
            # out= into VM-owned scratch when every operand is a float64
            # array and the scratch fits (the all-shapes-equal case skips
            # the broadcast); otherwise the plain operator, whose fresh
            # result is adopted as the scratch of later calls
            regs = [f"r{a}" for a in instr.args]
            if op in ("add", "mul"):
                sym, ufunc = ("+", "_np_add") if op == "add" else ("*", "_np_mul")
                fast = f"{regs[0]} {sym} {regs[1]}"
                inplace = f"{ufunc}({regs[0]}, {regs[1]}, out=_b)"
            elif op == "recip":
                fast = f"1.0 / {regs[0]}"
                inplace = f"_np_div(1.0, {regs[0]}, out=_b)"
            else:
                e = const_ref(instr.imm)
                fast = f"{regs[0]} ** {e}"
                inplace = f"_np_pow({regs[0]}, {e}, out=_b)"
            arrays = " and ".join(
                f"type({r}) is _nd and {r}.dtype is _F64" for r in regs)
            same = " == ".join(f"{r}.shape" for r in regs) + " == _b.shape"
            shape = (f"_bshape({regs[0]}.shape, {regs[1]}.shape)"
                     if len(regs) == 2 else f"{regs[0]}.shape")
            emit(f"    _b = bufs[{d}]")
            emit(f"    if _b is not None and {arrays}:")
            emit(f"        if not ({same}):")
            emit(f"            _b = _fit(_b, {shape})")
            emit("    else:")
            emit("        _b = None")
            emit("    if _b is not None:")
            emit(f"        r{d} = {inplace}")
            emit("    else:")
            emit(f"        r{d} = {fast}")
            emit(f"        if (type(r{d}) is _nd and r{d}.dtype is _F64")
            emit(f"                and r{d}.size >= _MIN_INPLACE):")
            emit(f"            bufs[{d}] = r{d}")
        elif op == "pow":
            i, j = instr.args
            # mirror evaluate(): scalar -1 exponent means true division
            emit(f"    if _isscalar(r{j}) and r{j} == -1:")
            emit(f"        r{d} = 1.0 / r{i}")
            emit("    else:")
            emit(f"        r{d} = r{i} ** r{j}")
        elif op == "cmp":
            i, j = instr.args
            if instr.imm not in _CMP_OPS:  # pragma: no cover - compiler gated
                raise CodegenError(f"unknown comparison {instr.imm!r}")
            emit(f"    r{d} = r{i} {instr.imm} r{j}")
        elif op == "where":
            c, t, o = instr.args
            emit(f"    r{d} = (_np_where(r{c}, r{t}, r{o}) "
                 f"if isinstance(r{c}, _nd) else (r{t} if r{c} else r{o}))")
        elif op == "call":
            fn = f"_fn{len([k for k in names if k.startswith('_fn')])}"
            names[fn] = instr.imm  # resolved to the callable by the caller
            args = ", ".join(f"r{a}" for a in instr.args)
            emit(f"    r{d} = {fn}({args})")
        else:  # pragma: no cover - compiler emits only known opcodes
            raise CodegenError(f"unknown fused opcode {op!r}")
    emit(f"    return r{program.out_reg}")
    names["_consts"] = tuple(consts)
    return "\n".join(lines) + "\n", names


class VectorVM:
    """Executes one :class:`FusedProgram`; create one VM per call site.

    A VM instance assumes stable operand shapes across calls (that is what
    makes scratch reuse effective), so generated code binds a separate
    instance per statement — e.g. the GPU interior kernel and the boundary
    assembler each get their own VM for the surface program.
    """

    def __init__(
        self,
        program: FusedProgram,
        functions: Mapping[str, Callable[..., Any]] | None = None,
    ):
        self.program = program
        # snapshot the unified registry (plus overrides) at bind time
        self._functions = function_callables(functions)
        for instr in program.instructions:
            if instr.op == "call" and instr.imm not in self._functions:
                raise CodegenError(
                    f"fused program calls unregistered function {instr.imm!r}"
                )
        self._tls = threading.local()
        self.source, names = _specialize(program)
        namespace: dict[str, Any] = {
            "_nd": np.ndarray, "_F64": _F64,
            "_np_add": np.add, "_np_mul": np.multiply,
            "_np_div": np.true_divide, "_np_pow": np.power,
            "_np_where": np.where, "_isscalar": np.isscalar,
            "_bshape": np.broadcast_shapes, "_fit": _fit,
            "_MIN_INPLACE": _MIN_INPLACE,
        }
        for key, value in names.items():
            namespace[key] = (
                self._functions[value] if key.startswith("_fn") else value
            )
        code = _CODE_CACHE.get(self.source)
        if code is None:
            code = _CODE_CACHE[self.source] = compile(
                self.source, "<fused program>", "exec"
            )
        exec(code, namespace)  # noqa: S102 - our own generated source
        self._exec = namespace["_fused_run"]
        # `run` is rebound per instance as a closure: the generated hot
        # loops call it tens of thousands of times, so the method lookup /
        # attribute-chase overhead of a plain method is worth shaving
        tls = self._tls
        exec_fn = self._exec
        n_slots = len(program.slots)
        n_regs = program.n_registers

        def run(*slots: Any) -> Any:
            if len(slots) != n_slots:
                raise CodegenError(
                    f"fused program expects {n_slots} slots, got {len(slots)}"
                )
            bufs = getattr(tls, "bufs", None)
            if bufs is None:
                bufs = tls.bufs = [None] * n_regs
            return exec_fn(slots, bufs)

        run.__doc__ = VectorVM.run.__doc__
        self.run = run  # type: ignore[method-assign]

    def _check_slots(self, slots: tuple) -> None:
        if len(slots) != len(self.program.slots):
            raise CodegenError(
                f"fused program expects {len(self.program.slots)} slots, "
                f"got {len(slots)}"
            )

    # ------------------------------------------------------------------ run
    def run(self, *slots: Any) -> Any:
        """Execute the specialised program over the given slot values.

        Returns the result array/scalar; when it is VM-owned scratch the
        caller must copy it out (generated code assigns into ``flux[sel]``
        etc.) or consume it before the next ``run()``.

        (Replaced per instance by a specialised closure in ``__init__``;
        this body exists for the docstring and as the fallback.)
        """
        self._check_slots(slots)
        tls = self._tls
        bufs = getattr(tls, "bufs", None)
        if bufs is None:
            bufs = tls.bufs = [None] * self.program.n_registers
        return self._exec(slots, bufs)

    # --------------------------------------------------------- oracle engine
    def run_interpreted(self, *slots: Any) -> Any:
        """Instruction-by-instruction reference execution of the program.

        Same semantics as :meth:`run` (the differential tests hold the two
        engines bit-identical); uses its own scratch registers so the two
        engines never share buffers.
        """
        self._check_slots(slots)
        program = self.program
        tls = self._tls
        regs = getattr(tls, "interp_regs", None)
        if regs is None:
            regs = tls.interp_regs = [None] * program.n_registers
            tls.interp_bufs = [None] * program.n_registers
        bufs = tls.interp_bufs
        functions = self._functions

        for instr in program.instructions:
            op = instr.op
            args = instr.args
            dst = instr.dst
            if op == "add":
                a, b = regs[args[0]], regs[args[1]]
                out = _out_for(bufs[dst], a, b)
                value = a + b if out is None else np.add(a, b, out=out)
            elif op == "mul":
                a, b = regs[args[0]], regs[args[1]]
                out = _out_for(bufs[dst], a, b)
                value = a * b if out is None else np.multiply(a, b, out=out)
            elif op == "load":
                value = slots[instr.imm]
            elif op == "const":
                value = instr.imm
            elif op == "recip":
                a = regs[args[0]]
                out = _out_for(bufs[dst], a)
                value = 1.0 / a if out is None else np.true_divide(1.0, a, out=out)
            elif op == "pow_const":
                a = regs[args[0]]
                out = _out_for(bufs[dst], a)
                value = (a ** instr.imm if out is None
                         else np.power(a, instr.imm, out=out))
            elif op == "pow":
                base = regs[args[0]]
                exponent = regs[args[1]]
                # mirror evaluate(): scalar -1 exponent means true division
                if np.isscalar(exponent) and exponent == -1:
                    value = 1.0 / base
                else:
                    value = base ** exponent
            elif op == "cmp":
                value = _CMP_OPS[instr.imm](regs[args[0]], regs[args[1]])
            elif op == "where":
                cond = regs[args[0]]
                then = regs[args[1]]
                other = regs[args[2]]
                value = (
                    np.where(cond, then, other)
                    if isinstance(cond, np.ndarray)
                    else (then if cond else other)
                )
            elif op == "call":
                value = functions[instr.imm](*[regs[a] for a in args])
            else:  # pragma: no cover - compiler emits only known opcodes
                raise CodegenError(f"unknown fused opcode {op!r}")

            regs[dst] = value
            if (
                op in _ADOPTABLE
                and out is None
                and type(value) is np.ndarray
                and value.dtype is _F64
            ):
                # a fresh array from pure arithmetic: adopt it as scratch
                bufs[dst] = value

        return regs[program.out_reg]


def install_vms(
    env: dict,
    programs: Mapping[str, FusedProgram] | None,
    functions: Mapping[str, Callable[..., Any]] | None = None,
) -> None:
    """Bind one VM per program into a generated namespace as ``VM_<NAME>``.

    Called at artifact *bind* time: :class:`FusedProgram` is picklable and
    travels in ``static_env["FUSED_PROGRAMS"]``, while VM instances hold
    live scratch and must be rebuilt per solver.
    """
    if not programs:
        return
    for name, program in programs.items():
        env[f"VM_{name.upper()}"] = VectorVM(program, functions)


__all__ = ["VectorVM", "install_vms"]
