"""Numeric evaluation of expression trees.

Used by the property-based tests (simplification must preserve value), by the
interpreted fallback solver, and by the codegen self-checks.  Works with
scalars *and* numpy arrays: every operation maps to elementwise numpy, so an
environment can bind symbols to whole per-cell arrays and a single
:func:`evaluate` call computes the expression for all cells at once.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import Any

import numpy as np

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
    SideValue,
    Surface,
    Sym,
    TimeDerivative,
    Vector,
)
from repro.symbolic.functions import FUNCTION_CALLABLES, function_callables
from repro.util.errors import DSLError

#: Callables usable from expressions by default — a live view of the unified
#: :mod:`repro.symbolic.functions` registry, so functions registered there
#: (or via the DSL) are immediately evaluatable.  Per-call overrides still
#: arrive through the ``functions`` argument.
DEFAULT_FUNCTIONS: Mapping[str, Callable[..., Any]] = FUNCTION_CALLABLES

_CMP_FUNCS: dict[str, Callable[[Any, Any], Any]] = {
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def evaluate(
    expr: Expr,
    env: Mapping[str, Any] | Callable[[Expr], Any],
    functions: Mapping[str, Callable[..., Any]] | None = None,
) -> Any:
    """Evaluate ``expr`` numerically.

    Parameters
    ----------
    expr:
        The expression tree.
    env:
        Either a mapping from *symbol/indexed string form* to value
        (``{"x": 2.0, "I[d,b]": arr}``) or a callable receiving the leaf node
        (:class:`Sym`, :class:`Indexed`, :class:`FaceNormal`,
        :class:`SideValue`) and returning its value.  The string form keys
        use ``str(node)``.
    functions:
        Extra named functions for :class:`Call` nodes (overrides defaults).

    Raises
    ------
    DSLError
        If a leaf or function is unbound.
    """
    funcs = function_callables(functions)

    if callable(env) and not isinstance(env, Mapping):
        lookup = env
    else:
        table: Mapping[str, Any] = env  # type: ignore[assignment]

        def lookup(node: Expr) -> Any:
            key = str(node)
            if key not in table:
                raise DSLError(f"unbound symbol {key!r} during evaluation")
            return table[key]

    return _eval(expr, lookup, funcs)


def _eval(expr: Expr, lookup: Callable[[Expr], Any], funcs: Mapping[str, Callable[..., Any]]) -> Any:
    if isinstance(expr, Num):
        # literals are reals: ``Num`` stores integral values as ``int`` only
        # as a normal form, and integer arithmetic (int-array powers, int64
        # wrap-around) is not what the generated float64 code computes
        return float(expr.value)
    if isinstance(expr, (Sym, Indexed, FaceNormal, FaceDistance, SideValue)):
        return lookup(expr)
    if isinstance(expr, Add):
        total = _eval(expr.args[0], lookup, funcs)
        for a in expr.args[1:]:
            total = total + _eval(a, lookup, funcs)
        return total
    if isinstance(expr, Mul):
        prod = _eval(expr.args[0], lookup, funcs)
        for a in expr.args[1:]:
            prod = prod * _eval(a, lookup, funcs)
        return prod
    if isinstance(expr, Pow):
        base = _eval(expr.base, lookup, funcs)
        exponent = _eval(expr.exponent, lookup, funcs)
        # x^(-1) is a true division, as the emitter spells it (``1.0 / x``)
        if np.isscalar(exponent) and exponent == -1:
            return 1.0 / base
        return base ** exponent
    if isinstance(expr, Cmp):
        return _CMP_FUNCS[expr.op](_eval(expr.lhs, lookup, funcs), _eval(expr.rhs, lookup, funcs))
    if isinstance(expr, Conditional):
        cond = _eval(expr.cond, lookup, funcs)
        then = _eval(expr.then, lookup, funcs)
        other = _eval(expr.otherwise, lookup, funcs)
        # also for a scalar condition: a Python branch would hand back a
        # Python float where the generated code has a 0-d array (1/0.0 raises
        # on the one and is inf on the other)
        return np.where(cond, then, other)
    if isinstance(expr, Call):
        fn = funcs.get(expr.func)
        if fn is None:
            raise DSLError(
                f"no numeric implementation for function {expr.func!r}; "
                "register it via the `functions` argument"
            )
        return fn(*[_eval(a, lookup, funcs) for a in expr.args])
    if isinstance(expr, Vector):
        return np.array([_eval(c, lookup, funcs) for c in expr.components])
    if isinstance(expr, (Surface, TimeDerivative)):
        # markers are transparent for plain evaluation
        return _eval(expr.expr, lookup, funcs)
    raise DSLError(f"cannot evaluate node type {type(expr).__name__}")


__all__ = ["evaluate", "DEFAULT_FUNCTIONS"]
