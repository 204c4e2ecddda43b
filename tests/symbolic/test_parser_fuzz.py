"""Parser robustness: arbitrary input either parses or raises ParseError.

A DSL front end must never leak internal exceptions on malformed user
input; hypothesis feeds the tokenizer/parser random strings (plain ASCII
and strings biased toward the grammar's alphabet) and anything other than
success or a clean :class:`ParseError` is a bug.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.symbolic.evaluate import evaluate
from repro.symbolic.expr import Call, Expr, Num, preorder
from repro.symbolic.parser import parse, tokenize
from repro.util.errors import ParseError

grammar_chars = st.text(
    alphabet="abcIuSxy01239.+-*/^()[];,<>= _",
    min_size=0,
    max_size=40,
)
any_ascii = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=0,
    max_size=40,
)


@given(source=grammar_chars)
@settings(max_examples=300, deadline=None)
def test_parse_never_leaks_internal_errors_grammar_alphabet(source):
    try:
        result = parse(source)
    except ParseError:
        return
    assert isinstance(result, Expr)


@given(source=any_ascii)
@settings(max_examples=300, deadline=None)
def test_parse_never_leaks_internal_errors_any_ascii(source):
    try:
        result = parse(source)
    except ParseError:
        return
    assert isinstance(result, Expr)


@given(source=any_ascii)
@settings(max_examples=200, deadline=None)
def test_tokenize_never_leaks(source):
    try:
        tokens = tokenize(source)
    except ParseError:
        return
    assert tokens[-1].kind == "end"


def _value(expr: Expr, leaves: dict, functions: dict):
    """``expr`` under ``evaluate`` at the leaves' values, or the type of the
    error it raises (a literal's ``1/0`` raises in Python floats)."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(evaluate(expr, lambda leaf: leaves[str(leaf)], functions),
                              dtype=float)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc)


@given(source=grammar_chars, seed=st.integers(0, 2**32 - 1))
@example(source="(0<0)<0", seed=0)  # a comparison of a comparison
@example(source="(0<0)+1", seed=0)  # ... in a sum
@example(source="(a<b)*c", seed=0)  # ... in a product
@example(source="a^(b<c)", seed=0)  # ... in an exponent
@example(source="-(a<b)", seed=0)  # ... negated
@example(source="a1^(S/-x3a/u>c)<3*a+03", seed=0)  # printed, it did not parse
@settings(max_examples=200, deadline=None)
def test_successful_parse_is_reparseable(source, seed):
    try:
        expr = parse(source)
    except ParseError:
        return
    # printing a parsed tree must itself be valid input, of the same value:
    # not the same tree (division prints as ``x^(-1)``)
    again = parse(str(expr))
    assert isinstance(again, Expr)
    rng = np.random.default_rng(seed)
    leaves = {str(n): rng.uniform(-3.0, 3.0, 4)
              for n in preorder(expr) if not n.children and not isinstance(n, Num)}
    functions = {n.func: lambda *args: sum(args, 1.0)
                 for n in preorder(expr) if isinstance(n, Call)}
    want, got = _value(expr, leaves, functions), _value(again, leaves, functions)
    if isinstance(want, type):
        assert got is want
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, equal_nan=True)
