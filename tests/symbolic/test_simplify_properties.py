"""Property-based tests: simplification must preserve value.

Random expression trees are generated over a fixed symbol pool, then
evaluated against random environments before and after ``simplify`` /
``expand_products``; the results must agree to floating-point roundoff.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.symbolic.evaluate import evaluate
from repro.symbolic.expr import (
    Add,
    Cmp,
    Conditional,
    Expr,
    Mul,
    Num,
    Pow,
    Sym,
    preorder,
    substitute,
)
from repro.symbolic.simplify import collect_terms, expand_products, simplify

SYMBOLS = ["x", "y", "z"]


def leaf() -> st.SearchStrategy[Expr]:
    return st.one_of(
        st.sampled_from([Sym(s) for s in SYMBOLS]),
        st.integers(min_value=-4, max_value=4).map(Num),
        st.floats(
            min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
        ).map(lambda v: Num(round(v, 3))),
    )


def trees(max_leaves: int = 12) -> st.SearchStrategy[Expr]:
    return st.recursive(
        leaf(),
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda ab: Add(*ab)),
            st.tuples(children, children, children).map(lambda abc: Add(*abc)),
            st.tuples(children, children).map(lambda ab: Mul(*ab)),
            st.tuples(children, st.integers(min_value=0, max_value=3)).map(
                lambda be: Pow(be[0], Num(be[1]))
            ),
            st.tuples(children, children, children).map(
                lambda abc: Conditional(Cmp(">", abc[0], Num(0)), abc[1], abc[2])
            ),
        ),
        max_leaves=max_leaves,
    )


def environments() -> st.SearchStrategy[dict]:
    value = st.floats(
        min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
    )
    return st.fixed_dictionaries({s: value for s in SYMBOLS})


def _close(a: float, b: float) -> bool:
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) <= 1e-9 * scale


def _both_finite_close(a: float, b: float) -> bool:
    if not (math.isfinite(a) and math.isfinite(b)):
        return True  # 0^-1 style edge cases: either form may overflow
    return _close(a, b)


def _branch_values(expr: Expr, env: dict) -> list[float]:
    """Every value ``expr`` takes at ``env`` when each conditional whose
    compared operands agree to roundoff may take either branch."""
    for node in preorder(expr):
        if isinstance(node, Conditional):
            lhs = float(evaluate(node.cond.lhs, env))
            rhs = float(evaluate(node.cond.rhs, env))
            if math.isfinite(lhs) and math.isfinite(rhs) and _close(lhs, rhs):
                return [value for branch in (node.then, node.otherwise)
                        for value in _branch_values(
                            substitute(expr, {node: branch}), env)]
    return [float(evaluate(expr, env))]


@given(expr=trees(), env=environments())
@example(
    expr=Conditional(Cmp(">", Add(Sym("y"), Sym("z"), Num(-1)), Num(0)),
                     Sym("x"), Sym("y")),
    env={"x": 2.0, "y": 1.0, "z": 1.4e-299},
)
@settings(max_examples=200, deadline=None)
def test_simplify_preserves_value(expr, env):
    """``simplify`` may re-associate inside a comparison, as everywhere.

    Its canonical order is what lets a compared operand that also appears
    in a branch stay one expression (the upwind ``v.n > 0`` and ``v.n``
    factor), and every target evaluates the same simplified tree, so no
    cross-target result depends on the choice.  Re-association moves a
    value by roundoff; a comparison turns that into a branch only when its
    operands agree to roundoff.  There either branch is accepted: at the
    pinned example ``y + z - 1`` is 0 and ``-1 + y + z`` is 1.4e-299.
    """
    after = float(evaluate(simplify(expr), env))
    assert any(_both_finite_close(before, after)
               for before in _branch_values(expr, env))


@given(expr=trees(), env=environments())
@settings(max_examples=150, deadline=None)
def test_expand_products_preserves_value(expr, env):
    before = evaluate(expr, env)
    after = evaluate(expand_products(expr), env)
    assert _both_finite_close(float(before), float(after))


@given(expr=trees())
@settings(max_examples=150, deadline=None)
def test_simplify_is_idempotent(expr):
    once = simplify(expr)
    twice = simplify(once)
    assert once == twice


@given(expr=trees(), env=environments())
@settings(max_examples=100, deadline=None)
def test_collect_terms_sum_equals_original(expr, env):
    terms = collect_terms(expr)
    before = float(evaluate(expr, env))
    after = float(sum(evaluate(t, env) for t in terms)) if terms else 0.0
    assert _both_finite_close(before, after)


@given(expr=trees())
@settings(max_examples=100, deadline=None)
def test_simplify_deterministic(expr):
    assert simplify(expr) == simplify(expr)
