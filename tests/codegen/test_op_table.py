"""The table of operations (:data:`repro.codegen.emit.OPS`) is the C tile's
exact/inexact split.

Every operation a statement applies has one entry: its NumPy spelling and
its exact C spelling, or none.  Per entry, a statement of the indexed
unknown that applies it to arrays: an exact one (``+ - * /``, negation,
compare/select, ``sqrt``/``abs``, a known variable's rows, a folded
operator, a bound name) is printed as C; an inexact one (a transcendental,
``min``/``max``, a general power, the MUSCL reconstruction) is evaluated in
NumPy over the sweep's rows before the call, the C tile reading the result.
Either way the C tile stores the NumPy record's bits.  Every entry has a
case, and every operation the emitter writes for any kind of node has an
entry.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.codegen import ctile
from repro.codegen.emit import COMPARISONS, OPS, EmittedExpr, Leaf, Op, Stmt
from repro.util.errors import CodegenError
from repro.symbolic.expr import (
    Add,
    Call,
    Cmp,
    Conditional,
    FaceDistance,
    FaceNormal,
    Indexed,
    Mul,
    Num,
    Pow,
    Reconstruction,
    SideValue,
    Sym,
)
from repro.symbolic.functions import FUNCTION_CODES
from tests.codegen.test_emit_properties import (
    IDX_EMITTER,
    NB,
    NCELLS,
    NCOMP,
    ND,
    NFACES,
    NO_SURFACE,
    NO_VOLUME,
    RK2,
    UPWIND,
    _I,
    _bits,
    _c_tile,
    _numpy_tile,
    _tile_scope,
)

K, W, IO = Sym("_k_1"), Indexed("w", ("d", "b")), Indexed("Io", ("b",))
_TWO = Add(_I, Num(2))

#: per operation, statements (volume, or ``surface``: folded) that apply it
#: to arrays, every other operation in their tile exact
CASES = [
    ("+", "sum", Add(Mul(_I, W), IO)),
    ("-", "difference", Add(IO, Mul(Num(-1), _I, W))),
    ("*", "product", Mul(_I, W)),
    ("*", "negation", Mul(Num(-1), _I)),
    ("/", "reciprocal", Pow(_TWO, Num(-1))),
    *((op, "test", Conditional(Cmp(op, _I, W), _I, IO)) for op in COMPARISONS),
    ("np.where", "select", Conditional(Cmp(">", W, K), _I, IO)),
    ("np.sqrt", "sqrt", Call("sqrt", _TWO)),
    ("np.abs", "abs", Call("abs", _I)),
    ("take", "known variable", Add(IO, _I)),
    ("fold", "surface", Mul(Indexed("vg", ("b",)), UPWIND)),
    ("=", "column", Mul(_I, Add(W, K))),
    ("=", "plain float", Mul(_I, Add(K, Mul(K, K)))),
    *((f"np.{fn}", fn, Call(fn, _TWO)) for fn in ("exp", "log", "sin", "cos", "tanh")),
    ("np.minimum", "min", Call("min", _I, W)),
    ("np.maximum", "max", Call("max", _I, W)),
    ("**", "power", Pow(_I, Num(2))),
]
EXACT = {"+", "-", "*", "/", *COMPARISONS, "np.where", "np.sqrt", "np.abs", "take", "fold", "="}


def ops(term) -> set[str]:
    """The operations of a term, nested ones included."""
    if not isinstance(term, Op):
        return set()
    return {term.op}.union(*map(ops, term.args))


def statement_ops(emitted) -> set[str]:
    return ops(emitted.term).union(*(ops(s.term) for s in emitted.statements))


def env() -> dict:
    """Inputs of the indexed unknown's tile, signed zeros, NaN and inf among
    them."""
    rng = np.random.default_rng(38)

    def table(*shape):
        values = rng.uniform(-4.0, 4.0, shape)
        values.reshape(-1)[:4] = [0.0, -0.0, np.inf, np.nan][:values.size]
        return values

    space = IDX_EMITTER.space
    return {"coef_k": 1.5, "coef_Sx": table(ND)[space.axis_values("d")],
            "coef_vg": table(NB)[space.axis_values("b")], "coef_w": table(NCOMP),
            "fcoef_q_face": table(NFACES), "var_Io": table(NB, NCELLS),
            "normal_x": table(NFACES), "u1": table(NCOMP, NFACES), "u2": table(NCOMP, NFACES)}


@pytest.mark.parametrize("op, _, expr", CASES, ids=[f"{op}-{name}" for op, name, _ in CASES])
def test_an_operation_prints_c_exactly_when_the_table_gives_it_a_c_spelling(op, _, expr):
    if op == "fold":
        folded, volume = IDX_EMITTER.emit_sum([expr], "surface").folded, NO_VOLUME
    else:
        folded, volume = NO_SURFACE, IDX_EMITTER.emit_sum([expr], "volume")
    applied = statement_ops(folded) | statement_ops(volume)
    first = [h.code for h in volume.sweep if not h.rows]  # evaluated before the sweep
    assert applied <= set(OPS) and (op in EXACT) == (OPS[op][3] is not None), (op, applied)
    if op in EXACT:
        assert op in applied and not first, (op, applied)
    else:
        spelling = OPS[op][0].split("{")[0] or OPS[op][1]
        assert op not in applied and any(spelling in code for code in first), (op, first)
    lowered = ctile.lower(volume, RK2, folded=folded)
    scope, u = _tile_scope(env())
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        tile_scope, expected = _numpy_tile(IDX_EMITTER, folded, volume, scope, u)
        assert _bits(_c_tile(lowered, tile_scope, u)) == _bits(expected), (op, expr)


def test_the_reconstruction_has_no_c_form():
    """The MUSCL kernel is a face statement's alone, and has no C form: the
    emitter evaluates it before the sweep (a statement holding it is no C)."""
    reconstruct = Stmt("c0", Op("kernels.muscl_flux", (Leaf("u", "us"),)))
    statement = EmittedExpr(Leaf("r", "c0"), 0, statements=[reconstruct])
    with pytest.raises(CodegenError, match="no C form"):
        ctile.lower(statement, RK2)
    emitted = IDX_EMITTER.emit_sum(
        [Reconstruction("muscl", Mul(FaceNormal(1), Indexed("Sx", ("d",))), _I)], "surface")
    (first,) = [h for h in emitted.sweep if not h.rows]
    assert first.code.startswith("kernels.muscl_flux(geom, ") and first.width == "faces"
    assert "kernels.muscl_flux" not in statement_ops(emitted)


def test_every_entry_has_a_case():
    assert {op for op, _, _ in CASES} | {"kernels.muscl_flux"} == set(OPS)


S = Indexed("Sx", ("d",))
#: one tree per kind of node the emitter spells, in either statement
EVERY_NODE = [
    *(expr for op, _, expr in CASES if op != "fold" and not isinstance(expr, Call)),
    *(Call(fn, *[_TWO] * (2 if fn in ("min", "max") else 1)) for fn in FUNCTION_CODES),
    Pow(_TWO, K), Add(_I, Sym("dt")), Mul(Sym("_q_1"), _I),
]
EVERY_FACE_NODE = [
    Mul(Indexed("vg", ("b",)), UPWIND), Add(SideValue(_I, 1), SideValue(_I, 2)),
    Mul(FaceDistance(), FaceNormal(1), SideValue(_I, 2)),
    Reconstruction("muscl", Mul(FaceNormal(1), S), _I),
    Conditional(Cmp("<", Mul(FaceNormal(1), S), Num(0)), SideValue(_I, 1), Sym("_q_1")),
]


def test_every_operation_the_emitter_writes_has_an_entry():
    """An operation added to the emitter without an entry in the table
    fails here: every kind of node, in tile statements and plain ones."""
    written = set()
    for context, trees in (("volume", EVERY_NODE), ("surface", EVERY_FACE_NODE)):
        for expr in trees:
            emitted = IDX_EMITTER.emit_sum([expr], context)
            plain = getattr(IDX_EMITTER, f"emit_{context}")(expr)
            for e in (emitted, emitted.folded or emitted, plain):
                written |= statement_ops(e)
    assert "kernels.muscl_flux" in written and written <= set(OPS), written - set(OPS)
