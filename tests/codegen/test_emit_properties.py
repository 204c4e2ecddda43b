"""Property-based emitter equivalence: emitted code is bit-identical to
``evaluate()``.

Hypothesis generates random well-typed expression trees over a fixed leaf
pool (the :mod:`tests.symbolic.test_parser_fuzz` idiom), emits each through
:class:`repro.codegen.emit.ExprEmitter` and runs it.  For every tree and
every environment — scalars, arrays, NaN/Inf payloads — the result must
match :func:`repro.symbolic.evaluate.evaluate` **bit for bit**
(``tobytes()`` equality, not ``allclose``), and when one side raises, the
other must raise the same exception type.  Both the plain emission
(``emit_volume``) and the statement record (``emit_sum``, run as NumPy: its
``str``) are held to it.  A second suite does the same over an indexed
unknown in a surface statement, where ``emit_sum`` moves sub-expressions
into step-invariant tables and per-sweep definitions, selects before it
scales and replaces the upwind select by one gathered side.

Every statement also runs through the C sweep (:mod:`repro.codegen.ctile`):
a volume statement as a loop over the cells, a surface statement as a loop
over the faces.  A sub-tree with no C form — a transcendental,
``min``/``max``, a power of an array other than ``-1`` (:func:`inexact`) —
is evaluated in NumPy over the sweep's rows before the call, and exactly
such sub-trees are; the sweep stores ``evaluate``'s bits (plus ``0.0``, the
sum a sweep ends in), the NumPy record's for the indexed volume statements
and the folded ones (through the folded operator's oracle,
``tests/fvm/folded_oracle.py``).  The one caveat is the NaN payload a
product keeps when two NaNs meet.

The trees deliberately include the nodes the emitter special-cases:
``Pow`` with constant/dynamic/−1 exponents, ``Cmp`` embedded in
``Conditional``, registered ``Call`` functions, and pure-constant subtrees.

Leaves are bound once, in the namespace the emitted source runs in; the
interpreter reads each leaf by evaluating that leaf's own emitted spelling
(``coef_a``, ``u[sel]``) there, so the two sides cannot see different
inputs and every difference is a difference in how a compound node is
computed.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.codegen import ctile
from repro.codegen.emit import EmittedExpr, ExprEmitter, Hoisted, Leaf, Op, Stmt, hoisted_lines
from repro.dsl.entities import CELL, VAR_ARRAY
from repro.dsl.problem import Problem
from repro.fvm import kernels
from repro.fvm.geometry import FaceLoop
from repro.fvm.timesteppers import TABLEAUX
from repro.ir.lowering import lower_conservation_form
from repro.mesh.grid import structured_grid
from repro.symbolic.evaluate import evaluate
from tests.fvm.folded_oracle import apply_folded
from repro.symbolic.expr import (
    Add,
    Call,
    Cmp,
    Conditional,
    Expr,
    FaceNormal,
    Indexed,
    Mul,
    Num,
    Pow,
    SideValue,
    Sym,
    preorder,
)

# CI runs with a pinned derandomised profile so failures reproduce
settings.register_profile("ci", derandomize=True, max_examples=60)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

#: three scalar coefficients and the unknown, as the lowering spells them
COEFS = ("a", "b", "c")
LEAVES = tuple(Sym(f"_{name}_1") for name in (*COEFS, "u"))

_FUNCS_1 = ("abs", "sqrt", "exp", "cos", "tanh")
_FUNCS_2 = ("min", "max")


def _make_emitter() -> ExprEmitter:
    p = Problem("emit-properties")
    p.set_domain(1)
    p.set_steps(1e-3, 1)
    p.set_mesh(structured_grid((4,)))
    p.add_variable("u")
    for name in COEFS:
        p.add_coefficient(name, 1.0)
    equation = "-a*u"
    p.set_conservation_form("u", equation)
    _, form = lower_conservation_form(equation, p.unknown, p.entities, p.operators)
    return ExprEmitter(p, form)


EMITTER = _make_emitter()
LEAF_CODE = {leaf_: EMITTER.emit_volume(leaf_).code for leaf_ in LEAVES}


def leaf() -> st.SearchStrategy[Expr]:
    return st.one_of(
        st.sampled_from(LEAVES),
        st.integers(min_value=-4, max_value=4).map(Num),
        st.floats(
            min_value=-8.0, max_value=8.0, allow_nan=False, allow_infinity=False
        ).map(Num),
    )


def trees(leaves: st.SearchStrategy[Expr] | None = None) -> st.SearchStrategy[Expr]:
    def compound(children: st.SearchStrategy[Expr]) -> st.SearchStrategy[Expr]:
        pair = st.tuples(children, children)
        return st.one_of(
            # conditional(c, A*k, B*k): the select-before-scale shape, with
            # the shared factor on either side of the differing one
            st.tuples(
                st.sampled_from((">", "<=")), children, children,
                children, children, children, st.booleans(),
            ).map(lambda t: Conditional(
                Cmp(t[0], t[1], t[2]),
                Mul(t[3], t[5]) if t[6] else Mul(t[5], t[3]),
                Mul(t[4], t[5]) if t[6] else Mul(t[5], t[4]))),
            pair.map(lambda ab: Add(*ab)),
            st.tuples(children, children, children).map(lambda abc: Add(*abc)),
            pair.map(lambda ab: Mul(*ab)),
            # the emitter's three power spellings: 1.0/x, x**const, x**y
            children.map(lambda b: Pow(b, Num(-1))),
            st.tuples(children, st.sampled_from([-3, -2, 2, 3, 0.5])).map(
                lambda be: Pow(be[0], Num(be[1]))
            ),
            pair.map(lambda be: Pow(*be)),
            st.tuples(
                st.sampled_from((">", "<", ">=", "<=", "==", "!=")),
                children, children, children, children,
            ).map(lambda t: Conditional(Cmp(t[0], t[1], t[2]), t[3], t[4])),
            st.tuples(st.sampled_from(_FUNCS_1), children).map(
                lambda fa: Call(fa[0], fa[1])
            ),
            st.tuples(st.sampled_from(_FUNCS_2), children, children).map(
                lambda fab: Call(fab[0], fab[1], fab[2])
            ),
        )

    return st.recursive(leaf() if leaves is None else leaves, compound, max_leaves=14)


_FINITE = st.floats(min_value=-8.0, max_value=8.0,
                    allow_nan=False, allow_infinity=False)


def _rows(element: st.SearchStrategy[float], n: int) -> st.SearchStrategy[np.ndarray]:
    return st.lists(element, min_size=n, max_size=n).map(
        lambda vs: np.asarray(vs, dtype=np.float64)
    )


def scalar_envs() -> st.SearchStrategy[dict]:
    """Every coefficient a plain float; the unknown a single DOF."""
    value = st.one_of(_FINITE, st.sampled_from([0.0, -0.0, 1.0, -1.0]))
    env = {f"coef_{name}": value for name in COEFS}
    env["u"] = _rows(value, 1).map(lambda row: row[None, :])
    return st.fixed_dictionaries(env)


def array_envs(n: int = 7, special: bool = False) -> st.SearchStrategy[dict]:
    """Per-cell arrays everywhere (the unknown carries its component axis)."""
    element = _FINITE
    if special:
        element = st.one_of(
            element,
            st.sampled_from([float("nan"), float("inf"), float("-inf"),
                             0.0, -0.0]),
        )
    env = {f"coef_{name}": _rows(element, n) for name in COEFS}
    env["u"] = _rows(element, n).map(lambda row: row[None, :])
    return st.fixed_dictionaries(env)


def _outcome(fn):
    """Run ``fn``; normalise to (bit-pattern, None) or (None, error type)."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            value = fn()
        except Exception as exc:  # noqa: BLE001 - compared by type below
            return None, type(exc)
    arr = np.asarray(value)
    return (arr.shape, arr.dtype.str, arr.tobytes()), None


def _registers(prefix: str, count: int, shape: tuple) -> dict:
    """Scratch a target binds for a statement, filled with a value no
    computation should pick up."""
    return {f"{prefix}{i}": np.full(shape, -777.25) for i in range(count)}


def _definitions(emitted: EmittedExpr, scope: dict, sweep=()) -> None:
    """What a target evaluates before the sweep, into ``scope``: the tables,
    the definitions of known variables, then (with ``sweep``'s, another
    statement's) what has no C form, over the sweep's rows ``rows_sel`` —
    ``sel`` is left as it was."""
    scope.setdefault("buffer", lambda name, shape: np.full(shape, -777.25))
    defs = [*emitted.sweep, *sweep]
    width = "us.shape[1]"
    rows = ("rows_sel", "len(us)", "u1.shape[1]")
    sel = scope["sel"]
    for line in (hoisted_lines(emitted.tables)
                 + hoisted_lines([h for h in defs if h.rows], emitted.sweep_registers,
                                 "buffer", width, rows)
                 + hoisted_lines([h for h in defs if not h.rows], 0, "buffer", width, rows)):
        exec(line, scope)  # noqa: S102 - executing our own emission
    scope["sel"] = sel


def _run_statement(emitted, namespace: dict):
    """The definitions first, then the register lines (hoisted temporaries
    among them) and the statement — the record as NumPy."""
    us = np.asarray(eval("u[sel]", dict(namespace)))  # noqa: S307
    scope = {**namespace, "us": us, "rows_sel": namespace["sel"],
             **_registers("c", emitted.registers, np.broadcast_shapes(us.shape, (1, 1)))}
    _definitions(emitted, scope)
    for line in emitted.prelude:
        exec(line, scope)  # noqa: S102 - executing our own emission
    return eval(emitted.code, scope)  # noqa: S307


def _refuses_complex(dtype, error) -> bool:
    """A negative float to a fractional power is complex in Python: the
    statement form writes float registers and refuses the value with a
    casting ``TypeError`` where a bare expression would carry it on (into a
    store that drops the imaginary part)."""
    return bool(dtype) and np.dtype(dtype).kind == "c" and error is not None \
        and issubclass(error, TypeError)


def assert_emitted_matches(expr: Expr, env: dict) -> None:
    namespace = {"np": np, "sel": slice(None), **env}
    leaf_values = {
        leaf_: eval(code, namespace)  # noqa: S307 - evaluating our own emission
        for leaf_, code in LEAF_CODE.items()
    }
    expected, expected_err = _outcome(lambda: evaluate(expr, leaf_values.__getitem__))

    plain = EMITTER.emit_volume(expr)
    statement = EMITTER.emit_sum([expr], "volume")
    for label, run in (
        ("emit_volume", lambda: eval(plain.code, dict(namespace))),  # noqa: S307
        ("emit_sum", lambda: _run_statement(statement, namespace)),
    ):
        got, got_err = _outcome(run)
        if _refuses_complex(label == "emit_sum" and expected and expected[1], got_err):
            continue
        assert got_err is expected_err, (
            f"{label}: raised {got_err} vs evaluate's {expected_err} for {expr}"
        )
        assert got == expected, f"{label}: bit mismatch for {expr}"
    if all(isinstance(env[f"coef_{name}"], float) for name in COEFS):
        # a scalar coefficient is a float to the C tile (passed by value)
        assert_c_tile_evaluates(expr, statement, namespace, env["u"], expected, expected_err)


# -- the C tile ----------------------------------------------------------------
#: a tile with no surface statement, or no volume statement: ``0.0``
NO_SURFACE = NO_VOLUME = EmittedExpr(0.0, 0)


def inexact(expr: Expr, scalars: tuple = ()) -> bool:
    """Whether ``expr`` has a sub-tree the C printer has no form for, which
    the emitter evaluates in NumPy before the sweep: a function other than
    ``abs``/``sqrt``, or a power other than ``x^-1``, of anything that is not
    a plain float (plain floats Python computes before the call)."""
    def array(node):
        return any(isinstance(n, (Indexed, SideValue, FaceNormal))
                   or (isinstance(n, Sym) and n.name not in scalars)
                   for n in preorder(node))

    return any(
        ((isinstance(n, Call) and n.func not in ("abs", "sqrt"))
         or (isinstance(n, Pow)
             and not (isinstance(n.exponent, Num) and n.exponent.value == -1)))
        and array(n) for n in preorder(expr))


def _numpy_tile(emitter, folded, volume, scope: dict, u: np.ndarray, sweep=()):
    """The statement record of a sweep of ``folded`` and ``volume`` as NumPy
    over every row of ``u``, as an RK sweep stores it: ``source + div`` —
    the definitions first, as a target evaluates them (``sweep``: the
    surface statement's, which the folded one reads), the folded operator
    by its oracle, every other statement by its ``str``."""
    s = dict(scope, kernels=kernels, np=np, u=u, us=u, sel=slice(None), rows_sel=slice(None))
    _definitions(volume, s, sweep)
    s.update(acc=np.empty_like(u), **_registers("c", volume.registers, u.shape),
             **_registers("d", folded.registers, u.shape))
    for st in [*folded.statements, *volume.statements]:
        if st.term.op == "fold":  # (C only: here its oracle)
            name, rows = st.term.args
            apply_folded(s[name], u, kernels.table_runs(s[f"tmap_{rows}"]), s[st.target],
                         np.empty_like(u))
        else:
            exec(str(st), s)  # noqa: S102
    div = eval(folded.code, s)  # noqa: S307
    source = eval(volume.code, s)  # noqa: S307
    return s, np.add(source, div, out=np.empty_like(u))


#: the scheme whose last sweep :func:`_c_tile` reads the right-hand side from
RK2 = TABLEAUX["rk2"]


def _c_tile(lowered, scope: dict, u: np.ndarray) -> np.ndarray:
    """The C tile (:data:`RK2`'s last sweep) over every row of ``u`` into a
    fresh array (no boundary part), its operands read from ``scope``: its
    store ``o + s0 * k`` over ``-0.0`` with ``s0 = 1.0`` is the right-hand
    side ``k`` bit for bit (``-0.0`` adds nothing, not even to a zero)."""
    tile = ctile.Tile(ctile.build(lowered.text), lowered)
    tile.wait()
    out = np.full_like(u, -0.0)
    scope = {**scope, "state.host_u": u}  # (the step's unknown, which a last sweep reads not)
    operands = [scope.get(name) for name in lowered.operands]
    scalars = tuple(eval(source, scope) for source in lowered.scalars)  # noqa: S307
    tile({}, (1.0, *scalars), None, u, out, np.empty((lowered.folds + 1) * u.shape[1]),
         None, None, (), *operands)
    return out


def _complex_scalar(lowered, scope: dict) -> bool:
    """Whether a plain float the tile takes by value came out complex
    (``(-1)^0.5``): the C tile refuses it (``TypeError``) where the NumPy
    tile raises or drops the imaginary part, depending on the register."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            values = [eval(source, scope) for source in lowered.scalars]  # noqa: S307
        except Exception:  # noqa: BLE001 - raises on both tiles
            return False
    return any(isinstance(v, complex) for v in values)


def _bits(a: np.ndarray) -> bytes:
    """Bit pattern with NaN payloads made canonical (the one caveat)."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


def _evaluated(lowered) -> bool:
    """Whether a sweep reads a value evaluated in NumPy before it."""
    return any(kind in "eE" for kind in lowered.kinds)


def assert_c_tile_evaluates(expr: Expr, statement, namespace: dict, u, expected,
                            expected_err) -> None:
    """``expr``'s volume statement takes the C tile, a sub-tree with no C
    form evaluated before it (exactly where :func:`inexact` says), and
    stores ``evaluate``'s bits plus ``0.0`` — or raises where it raises."""
    lowered = ctile.lower(statement, RK2)
    assert _evaluated(lowered) == inexact(expr, ("_a_1", "_b_1", "_c_1")), expr

    def run():
        scope = {**namespace, "us": u, "rows_sel": slice(None)}
        _definitions(statement, scope)
        return _c_tile(lowered, scope, u)

    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        if expected_err is not None or np.dtype(expected[1]).kind == "c":
            with pytest.raises(Exception):  # noqa: B017 - a complex value, or what evaluate raised
                run()
            return
        got = run()
        want = np.frombuffer(expected[2], dtype=expected[1]).reshape(expected[0]) + 0.0
    assert _bits(got) == _bits(np.broadcast_to(want, u.shape).astype(np.float64)), expr


#: what has no C form, spelt as NumPy
_INEXACT_SPELLINGS = ("**", "np.exp(", "np.cos(", "np.tanh(", "np.minimum(", "np.maximum(")


def assert_evaluated_first_only_without_a_c_form(expr: Expr, emitted) -> None:
    """What a sweep over indexed leaves evaluates in NumPy first has no C
    form, and is there only if ``expr`` has such a node (one over
    coefficients or known variables alone may be a table instead)."""
    first = [h for h in emitted.sweep if not h.rows]
    assert not first or inexact(expr, ("_k_1",)), expr
    assert all(any(sp in h.code for sp in _INEXACT_SPELLINGS) for h in first), expr


def assert_c_tile_matches(expr: Expr, emitter, folded, volume, scope: dict, u,
                          sweep=()) -> None:
    """``expr`` (the tile's ``folded`` or ``volume`` statement) takes the C
    tile and stores the NumPy record's bits."""
    lowered = ctile.lower(volume, RK2, folded=folded)
    if _complex_scalar(lowered, scope):
        with pytest.raises(TypeError, match="complex"):
            _c_tile(lowered, scope, u)
        return
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            tile_scope, expected = _numpy_tile(emitter, folded, volume, scope, u, sweep)
        except Exception:  # noqa: BLE001 - then C must not return a value either
            with pytest.raises(Exception):  # noqa: B017
                _c_tile(lowered, scope, u)
            return
        got = _c_tile(lowered, tile_scope, u)
    assert _bits(got) == _bits(expected), f"C tile bit mismatch for {expr}"


@seed(20260808)
@given(expr=trees(), env=scalar_envs())
@settings(max_examples=150, deadline=None)
def test_emitted_matches_evaluate_scalar(expr, env):
    assert_emitted_matches(expr, env)


@seed(20260808)
@given(expr=trees(), env=array_envs())
@settings(max_examples=150, deadline=None)
def test_emitted_matches_evaluate_array(expr, env):
    assert_emitted_matches(expr, env)


@seed(20260808)
@given(expr=trees(), env=array_envs(special=True))
@settings(max_examples=150, deadline=None)
def test_emitted_propagates_nan_inf(expr, env):
    """NaN payloads, signed zeros and infinities must propagate identically."""
    assert_emitted_matches(expr, env)


@seed(20260808)
@given(expr=trees(), scalar=scalar_envs(), arrays=array_envs())
@settings(max_examples=75, deadline=None)
def test_emitted_mixed_scalar_array_env(expr, scalar, arrays):
    """Scalar coefficients against an array unknown: broadcasting must match."""
    assert_emitted_matches(expr, {**scalar, "u": arrays["u"]})


@seed(20260808)
@given(env=array_envs())
@settings(max_examples=30, deadline=None)
def test_conditional_array_condition_uses_where(env):
    a, b = LEAVES[0], LEAVES[1]
    expr = Conditional(Cmp(">", a, b), Mul(a, Num(2)), Mul(b, Num(-1)))
    assert_emitted_matches(expr, env)


@seed(20260808)
@given(env=scalar_envs())
@settings(max_examples=30, deadline=None)
def test_conditional_scalar_condition_broadcasts_like_where(env):
    a, b = LEAVES[0], LEAVES[1]
    expr = Conditional(Cmp("<=", a, b), Add(a, b), Add(a, Mul(b, Num(-1))))
    assert_emitted_matches(expr, env)


# -- the trees the suite found on its first run, pinned ----------------------
_ZEROS = {**{f"coef_{name}": 0.0 for name in COEFS}, "u": np.zeros((1, 1))}


def test_negative_literal_base_keeps_its_sign():
    """``-1.0 ** -2.0`` parses as ``-(1.0 ** -2.0)``; the emitter used to
    write exactly that for ``(-1)^(-2)`` and return -1.0."""
    expr = Pow(Num(-1), Num(-2))
    assert eval(EMITTER.emit_volume(expr).code) == 1.0  # noqa: S307
    assert_emitted_matches(expr, _ZEROS)


def test_scalar_condition_is_a_where_not_a_python_branch():
    """``evaluate`` used to pick a branch in Python when the condition was a
    scalar, so ``1/conditional(...)`` raised ZeroDivisionError where the
    emitted ``np.where`` yields inf."""
    a = LEAVES[0]
    expr = Pow(Conditional(Cmp(">", a, a), a, a), Num(-1))
    with np.errstate(divide="ignore"):
        assert np.isinf(evaluate(expr, {str(a): 0.0}))
    assert_emitted_matches(expr, _ZEROS)


def test_integral_literals_are_floats():
    """``evaluate`` used to compute ``conditional(c, 2, 3)^(-2)`` on an int64
    array and raise numpy's integers-to-negative-powers ValueError."""
    a, b = LEAVES[0], LEAVES[1]
    expr = Pow(Conditional(Cmp(">", a, b), Num(2), Num(3)), Num(-2))
    env = {**_ZEROS, "coef_a": np.array([1.0, 0.0]), "coef_b": np.array([0.0, 1.0])}
    assert_emitted_matches(expr, env)
    assert evaluate(Add(Num(2), Num(3)), {}) == 5.0
    assert isinstance(evaluate(Add(Num(2), Num(3)), {}), float)


# -- indexed unknown: tables, per-sweep terms, select-first, upwind ----------
ND, NB, NCELLS = 3, 2, 4
NFACES = NCELLS + 1
NCOMP = ND * NB


def _make_indexed_emitter() -> ExprEmitter:
    p = Problem("emit-properties-indexed")
    p.set_domain(1)
    p.set_steps(1e-3, 1)
    p.set_mesh(structured_grid((NCELLS,)))
    d = p.add_index("d", (1, ND))
    b = p.add_index("b", (1, NB))
    p.add_variable("I", VAR_ARRAY, CELL, index=[d, b])
    p.add_variable("Io", VAR_ARRAY, CELL, index=[b])
    p.add_coefficient("k", 1.0)                                    # no index
    p.add_coefficient("Sx", np.ones(ND), VAR_ARRAY, index=[d])     # index subsets
    p.add_coefficient("vg", np.ones(NB), VAR_ARRAY, index=[b])
    p.add_coefficient("w", np.ones((ND, NB)), VAR_ARRAY, index=[d, b])  # every index
    p.add_coefficient("q", lambda x, t: x[:, 0] + t)               # time-dependent
    equation = "Io[b] - surface(vg[b] * upwind([Sx[d]], I[d,b]))"
    p.set_conservation_form("I", equation)
    _, form = lower_conservation_form(equation, p.unknown, p.entities, p.operators)
    return ExprEmitter(p, form)


IDX_EMITTER = _make_indexed_emitter()
_I = Indexed("I", ("d", "b"))
IDX_LEAVES = (
    Sym("_k_1"), Indexed("Sx", ("d",)), Indexed("vg", ("b",)), Indexed("w", ("d", "b")),
    Sym("_q_1"), Indexed("Io", ("b",)), FaceNormal(1), SideValue(_I, 1), SideValue(_I, 2),
)
IDX_LEAF_CODE = {lf: IDX_EMITTER.emit_surface(lf).code for lf in IDX_LEAVES}
# every row map the suite can ask for, independent of emission order
IDX_EMITTER.row_spaces.update({"none": (), "d": ("d",), "b": ("b",)})
IDX_MAPS = {k: v for k, v in IDX_EMITTER.component_tables().items()
            if k.startswith(("tmap_", "trep_", "cmap_"))}
#: tiles a sweep could cut the six rows into: whole, straddling, index array
IDX_TILES = ((slice(None),), (slice(0, 4), slice(4, 6)),
             (np.array([0, 1, 4]), np.array([2, 3, 5])))


def indexed_leaf() -> st.SearchStrategy[Expr]:
    # the sides and the projected direction are drawn often enough for
    # upwind-shaped selects to occur
    return st.one_of(
        st.sampled_from(IDX_LEAVES),
        st.sampled_from(IDX_LEAVES[-3:] + (Indexed("Sx", ("d",)),)),
        st.integers(min_value=-4, max_value=4).map(Num),
        st.floats(min_value=-8.0, max_value=8.0, allow_nan=False,
                  allow_infinity=False).map(Num),
    )


def indexed_envs(special: bool = False) -> st.SearchStrategy[dict]:
    element = _FINITE
    if special:
        element = st.one_of(element, st.sampled_from(
            [float("nan"), float("inf"), float("-inf"), 0.0, -0.0]))
    space = IDX_EMITTER.space

    def table(n: int) -> st.SearchStrategy[np.ndarray]:
        return _rows(element, n)

    return st.fixed_dictionaries({
        "coef_k": st.one_of(_FINITE, st.sampled_from([0.0, -0.0, 1.0])),
        "coef_Sx": table(ND).map(lambda v: v[space.axis_values("d")]),
        "coef_vg": table(NB).map(lambda v: v[space.axis_values("b")]),
        "coef_w": table(NCOMP),
        "fcoef_q_face": table(NFACES),
        "var_Io": table(NB * NCELLS).map(lambda v: v.reshape(NB, NCELLS)),
        "normal_x": table(NFACES),
        "u1": table(NCOMP * NFACES).map(lambda v: v.reshape(NCOMP, NFACES)),
        "u2": table(NCOMP * NFACES).map(lambda v: v.reshape(NCOMP, NFACES)),
    })


def _full(value, exact_nans: bool = True) -> tuple:
    """Bit pattern over the full ``(NCOMP, NFACES)`` shape.  When two
    different NaNs meet in a product the CPU keeps one operand's payload,
    and which one depends on where the element falls in numpy's vector
    loop: a split sweep is compared with NaNs made canonical."""
    arr = np.broadcast_to(np.asarray(value), (NCOMP, NFACES))
    if not exact_nans and arr.dtype.kind in "fc":
        arr = np.where(np.isnan(arr), np.nan, arr)
    return arr.dtype.str, arr.tobytes()


def _run_swept(emitted, namespace: dict, tiles) -> np.ndarray:
    """As a target evaluates the statement record in NumPy: tables and
    per-sweep definitions, then per tile of rows what has no C form over
    them, the upwinded side and the statement."""
    scope = dict(namespace, kernels=kernels, us=namespace["u1"], rows_sel=slice(None))
    _definitions(EmittedExpr(0.0, 0, tables=emitted.tables,
                             sweep=[h for h in emitted.sweep if h.rows]), scope)
    rows = []
    for sel in tiles:
        scope.update(sel=sel, rows_sel=sel, u1=namespace["u1"][sel], u2=namespace["u2"][sel])
        scope["us"] = scope["u1"]
        _definitions(EmittedExpr(0.0, 0, sweep=[h for h in emitted.sweep if not h.rows]), scope)
        scope.update(_registers("f", emitted.registers, scope["u1"].shape))
        select = [f"uw = {emitted.upwind.select}"] if emitted.upwind else []
        for line in select + emitted.prelude:
            exec(line, scope)  # noqa: S102
        value = np.asarray(eval(emitted.code, scope))  # noqa: S307
        rows.append((sel, np.broadcast_to(value, (len(scope["u1"]), NFACES))))
    out = np.empty((NCOMP, NFACES), dtype=rows[0][1].dtype)
    for sel, value in rows:
        out[sel] = value
    return out


def _c_faces(emitted, namespace: dict, tiles) -> np.ndarray:
    """The statement as a C loop over the faces — the boundary part's shape:
    the first side a row handed in, the second its ghost value, each face
    its own output column (``0.0 + 1.0 * flux``) — over each tile of rows,
    what it reads evaluated first as a target does."""
    lowered = ctile.lower(NO_VOLUME, RK2, boundary=(emitted, False)).boundary
    tile = ctile.Tile(ctile.build(lowered.text), lowered)
    tile.wait()
    u1, u2 = (np.ascontiguousarray(namespace[k]) for k in ("u1", "u2"))
    side = np.arange(NFACES)
    faces = FaceLoop(side, ~side, namespace["owner"].astype(np.int64),
                     np.ascontiguousarray(namespace["normal_x"][None, :]), np.zeros(NFACES),
                     np.arange(NFACES + 1), side, np.ones(NFACES))
    scope = dict(namespace, kernels=kernels, us=u1, rows_sel=slice(None), faces=faces,
                 ghost=u2, overrides=[])
    _definitions(EmittedExpr(0.0, 0, tables=emitted.tables,
                             sweep=[h for h in emitted.sweep if h.rows]), scope)
    out = np.full_like(u1, -777.25)
    for sel in tiles:
        rows = np.arange(NCOMP)[sel]
        scope.update(sel=rows, rows_sel=rows, u1=u1[rows], u2=u2[rows], us=u1[rows])
        _definitions(EmittedExpr(0.0, 0, sweep=[h for h in emitted.sweep if not h.rows]), scope)
        scope["u2"] = u2
        scalars = tuple(eval(source, scope) for source in lowered.scalars)  # noqa: S307
        tile({}, (0.0, *scalars), rows, u1, out, np.empty(NFACES),
             *(scope.get(name) for name in lowered.operands))
    return out


def assert_swept_matches(expr: Expr, env: dict) -> None:
    namespace = {"np": np, "sel": slice(None), "owner": np.arange(NFACES) % NCELLS,
                 "other": (np.arange(NFACES) + 1) % NCELLS, **IDX_MAPS, **env}
    leaf_values = {lf: eval(code, namespace)  # noqa: S307
                   for lf, code in IDX_LEAF_CODE.items()}
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            expected, expected_err = evaluate(expr, leaf_values.__getitem__), None
        except Exception as exc:  # noqa: BLE001 - compared by type below
            expected, expected_err = None, type(exc)

        emitted = IDX_EMITTER.emit_sum([expr], "surface")
        for h in emitted.tables:  # invariant: coefficients and geometry only
            assert not any(name in h.code for name in ("fcoef_", "var_", "u1", "u2"))
        for h in emitted.sweep:   # constant within a sweep: no side, no time
            if h.rows:
                assert "var_Io" in h.code or "swp_s" in h.code  # ... or an earlier one
                assert not any(name in h.code for name in ("fcoef_", "u1", "u2"))
        assert_evaluated_first_only_without_a_c_form(expr, emitted)
        complex_ = expected is not None and np.asarray(expected).dtype.kind == "c"
        for tiles in IDX_TILES:
            try:
                got, got_err = _run_swept(emitted, namespace, tiles), None
            except Exception as exc:  # noqa: BLE001
                got, got_err = None, type(exc)
            if _refuses_complex(expected is not None and np.asarray(expected).dtype, got_err):
                continue
            assert got_err is expected_err, (
                f"raised {got_err} vs evaluate's {expected_err} for {expr}")
            whole = len(tiles) == 1
            assert got_err or _full(got, whole) == _full(expected, whole), (
                f"bit mismatch for {expr} in tiles {tiles}")
        for tiles in IDX_TILES:  # the C loop over the faces: evaluate's bits, plus 0.0
            if expected_err is not None or complex_:
                with pytest.raises(Exception):  # noqa: B017
                    _c_faces(emitted, namespace, tiles)
                continue
            got = _c_faces(emitted, namespace, tiles)
            want = np.broadcast_to(np.asarray(expected) + 0.0, (NCOMP, NFACES))
            assert _bits(got) == _bits(want.astype(np.float64)), (
                f"C bit mismatch for {expr} in tiles {tiles}")


def _zero_env(**values) -> dict:
    """An :func:`indexed_envs` environment of zeros but ``values``."""
    shapes = {"coef_Sx": NCOMP, "coef_vg": NCOMP, "coef_w": NCOMP, "fcoef_q_face": NFACES,
              "var_Io": (NB, NCELLS), "normal_x": NFACES, "u1": (NCOMP, NFACES),
              "u2": (NCOMP, NFACES)}
    return {"coef_k": 0.0, **{k: np.zeros(shape) for k, shape in shapes.items()}, **values}


#: a negative base to a fractional power in the branch a select takes:
#: Python's value is complex, and a statement that selects it into a float
#: register refuses it (it cast it to its real part, once)
COMPLEX_SELECT = Pow(Conditional(Cmp(">", Sym("_k_1"), Sym("_k_1")), Indexed("Io", ("b",)),
                                 Pow(Num(-1), Sym("_k_1"))), Num(-1))


@seed(20260929)
@given(expr=trees(indexed_leaf()), env=indexed_envs())
@settings(max_examples=150, deadline=None)
@example(expr=COMPLEX_SELECT, env=_zero_env(coef_k=1.5))
def test_swept_emission_matches_evaluate(expr, env):
    assert_swept_matches(expr, env)


@seed(20260929)
@given(expr=trees(indexed_leaf()), env=indexed_envs(special=True))
@settings(max_examples=150, deadline=None)
def test_swept_emission_propagates_nan_inf(expr, env):
    assert_swept_matches(expr, env)


@seed(20260929)
@given(env=indexed_envs(special=True), flip=st.booleans(), first=st.booleans())
@settings(max_examples=60, deadline=None)
def test_upwind_select_is_one_gathered_side(env, flip, first):
    """The paper's flux: the select on the tabled ``s_d.n > 0`` becomes
    ``uw``; with the sides swapped it gathers the other way round."""
    s = Mul(FaceNormal(1), Indexed("Sx", ("d",)))
    a, b = (SideValue(_I, 2), SideValue(_I, 1)) if flip else (
        SideValue(_I, 1), SideValue(_I, 2))
    pair = (Mul(a, s), Mul(b, s)) if first else (Mul(s, a), Mul(s, b))
    expr = Mul(Num(-1), Indexed("vg", ("b",)), Conditional(Cmp(">", s, Num(0)), *pair))
    emitted = IDX_EMITTER.emit_sum([expr], "surface")
    first, second, columns = ("u2", "u1", "other, owner") if flip else (
        "u1", "u2", "owner, other")
    assert emitted.upwind.rows == "d"
    assert str(emitted.upwind.select) == f"np.where(tab_s0[tmap_d[sel]], {first}, {second})"
    # the owner side where the condition holds: it can be copied over the other
    assert (emitted.upwind.owner_where is None) == flip
    assert Hoisted("upw", f"np.where(tab_s0, {columns})", "d") in emitted.tables
    statement = "\n".join([*emitted.prelude, emitted.code])
    assert "uw" in statement and "np.where" not in statement
    assert emitted.reads >= {"u1", "u2"}  # the byte estimate still counts both
    assert_swept_matches(expr, env)
    # linear in ``uw``, every other factor face geometry and columns over
    # ``d`` — in one space dimension a flat product, tabled for the fold — or
    # a column: the statement also comes folded through the divergence, the
    # face tables gone into the one operator its tile reads
    folded = emitted.folded
    assert Hoisted("tab_s2", "(normal_x[None, :] * coef_Sx[sel][:, None])", "d") \
        in emitted.tables
    assert folded.statements[0] == Stmt("acc", Op("fold", ("fold_s0", "d")))
    assert str(folded.statements[1]) == "np.multiply((-1.0 * coef_vg[sel][:, None]), acc, out=acc)"
    assert folded.code == "acc" and folded.registers == 0
    assert folded.tables == [
        Hoisted("fold_s0", "kernels.fold_upwind(divergence, tab_s2, upw)", "d")]


@seed(20261003)
@given(env=indexed_envs(), order=st.permutations(range(3)))
@settings(max_examples=60, deadline=None)
def test_a_sign_is_folded_into_the_sum_not_a_pass_of_its_own(env, order):
    """``x + (-1*y)`` is emitted as ``x - y``: the bits of the sum as
    written, an exact ``-0.0`` column and Inf included (a NaN *operand*
    keeps its payload, not its sign: that one bit of a failed run is not
    kept), wherever the negated product stands — first (it trades places
    with the second), last, or next to another one (the first then keeps
    its factor)."""
    env = dict(env, coef_vg=np.where(np.arange(NCOMP) % 2, -0.0, env["coef_vg"]),
               u2=np.where(np.arange(NFACES) == 1, np.inf, env["u2"]))
    terms = [Mul(Num(-1), SideValue(_I, 1), Indexed("vg", ("b",))),
             Mul(Indexed("Sx", ("d",)), SideValue(_I, 2)),
             Mul(SideValue(_I, 2), Num(-1), Indexed("w", ("d", "b")))]
    expr = Add(*(terms[i] for i in order))
    emitted = IDX_EMITTER.emit_sum([expr], "surface")
    statement = "\n".join([*emitted.prelude, emitted.code])
    leading_pair = order[2] == 1  # both negated products ahead of the other
    assert statement.count("np.subtract(") == (1 if leading_pair else 2)
    assert statement.count("-1.0") == (1 if leading_pair else 0)
    assert_swept_matches(expr, env)
    # as separate terms of one statement (the BTE's volume statement) too
    split = IDX_EMITTER.emit_sum([terms[i] for i in order], "surface")
    assert "\n".join([*split.prelude, split.code]) == statement
    assert split.flops == sum(IDX_EMITTER.emit_surface(t).flops for t in terms) + 2


def test_side_read_outside_the_select_keeps_both_gathers():
    s = Mul(FaceNormal(1), Indexed("Sx", ("d",)))
    upwind = Conditional(Cmp(">", s, Num(0)), Mul(SideValue(_I, 1), s),
                         Mul(SideValue(_I, 2), s))
    emitted = IDX_EMITTER.emit_sum([Add(upwind, SideValue(_I, 1))], "surface")
    # the statement still reads ``uw``; the tile selects it from both gathers,
    # and nothing folds: the lone side is no product with the select
    assert emitted.upwind and emitted.sides and emitted.folded is None


def test_function_coefficients_are_never_tabled():
    """``q`` is ``f(x, t)``: a compound containing it stays in the tile."""
    expr = Mul(Add(Sym("_q_1"), Indexed("Sx", ("d",))), FaceNormal(1))
    emitted = IDX_EMITTER.emit_sum([expr], "surface")
    assert not (emitted.tables or emitted.sweep)
    assert emitted.prelude == [
        "np.add(fcoef_q_face[None, :], coef_Sx[sel][:, None], out=f0)",
        "np.multiply(f0, normal_x[None, :], out=f0)"]


# -- the C tile over an indexed unknown: tables, sweeps, folds ----------------
VOL_LEAVES = (
    Sym("_k_1"), Indexed("Sx", ("d",)), Indexed("vg", ("b",)), Indexed("w", ("d", "b")),
    Sym("_q_1"), Indexed("Io", ("b",)), _I,
)
#: what may multiply a folded upwind statement: no face, no unknown
FLAT_LEAVES = (Sym("_k_1"), Indexed("Sx", ("d",)), Indexed("vg", ("b",)),
               Indexed("w", ("d", "b")))
_S = Mul(FaceNormal(1), Indexed("Sx", ("d",)))
UPWIND = Conditional(Cmp(">", _S, Num(0)), Mul(SideValue(_I, 1), _S), Mul(SideValue(_I, 2), _S))
#: a folded operator over the 4 cells, per row of ``d``: an offset entry
#: (cells 1..3 read their left neighbour) and a gather entry (every cell
#: reads its mirror)
_RNG = np.random.default_rng(2026)
_OWN = _RNG.uniform(-1, 1, (ND, NCELLS))
FOLD = kernels.FoldedOperator(
    _OWN, np.arange(0, 2 * ND + 1, 2),
    np.array([entry for r in range(ND) for entry in (
        (1, NCELLS, -1, -1, r * (2 * NCELLS - 1)),
        (0, NCELLS, 0, 0, r * (2 * NCELLS - 1) + NCELLS - 1))]),
    np.concatenate([_RNG.uniform(-1, 1, n) for _ in range(ND) for n in (NCELLS - 1, NCELLS)]),
    np.array([3, 2, 1, 0]))


def _leaves(pool) -> st.SearchStrategy[Expr]:
    return st.one_of(st.sampled_from(pool), st.integers(min_value=-4, max_value=4).map(Num),
                     _FINITE.map(Num))


#: volume trees (the test adds ``x - y*I``: a statement writes a subtraction)
VOL_TREES = trees(_leaves(VOL_LEAVES))


def _tile_scope(env: dict) -> tuple[dict, np.ndarray]:
    scope = {"np": np, **IDX_MAPS, **env, "fold_s0": FOLD}
    scope["fcoef_q"] = env["fcoef_q_face"][:NCELLS]
    return scope, np.ascontiguousarray(env["u1"][:, :NCELLS])


@seed(20261017)
@given(expr=st.one_of(VOL_TREES, st.tuples(VOL_TREES, VOL_TREES).map(
    lambda ab: Add(ab[0], Mul(Num(-1), ab[1], _I)))), env=indexed_envs(special=True))
@settings(max_examples=60, deadline=None)
def test_c_tile_volume_statement_matches_the_numpy_tile(expr, env):
    """Volume statements over the indexed unknown — step-invariant tables
    (boolean ones as a select's condition), per-sweep definitions, a known
    variable's rows, a function coefficient's row — are C, what has no C
    form evaluated before the sweep, with the NumPy record's bits."""
    statement = IDX_EMITTER.emit_sum([expr], "volume")
    lowered = ctile.lower(statement, RK2)
    assert_evaluated_first_only_without_a_c_form(expr, statement)
    scope, u = _tile_scope(env)
    if _complex_scalar(lowered, scope):
        return  # (the scalar suites pin the refusal)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            tile_scope, expected = _numpy_tile(IDX_EMITTER, NO_SURFACE, statement, scope, u)
        except Exception:  # noqa: BLE001 - a refused complex value, on both sides
            return
        assert _bits(_c_tile(lowered, tile_scope, u)) == _bits(expected), expr


@seed(20261017)
@given(flat=trees(_leaves(FLAT_LEAVES)), env=indexed_envs(special=True))
@settings(max_examples=60, deadline=None)
def test_c_tile_folded_statement_matches_the_numpy_tile(flat, env):
    """Every folded surface statement — an upwind flux times any product of
    flat factors — is C: the operator's own coefficient and its offset and
    gather entries in order, then the
    factors, with the NumPy record's bits (the folded operator through its
    oracle, ``apply_folded``).  A factor with no C form is evaluated first."""
    emitted = IDX_EMITTER.emit_sum([Mul(flat, UPWIND)], "surface")
    folded = emitted.folded
    assert folded is not None and folded.statements[0].term.op == "fold"
    scope, u = _tile_scope(env)
    assert_evaluated_first_only_without_a_c_form(flat, emitted)
    assert_c_tile_matches(flat, IDX_EMITTER, folded, NO_VOLUME, scope, u, sweep=emitted.sweep)
