"""Parser robustness: arbitrary input either parses or raises ParseError.

A DSL front end must never leak internal exceptions on malformed user
input; hypothesis feeds the tokenizer/parser random strings (plain ASCII
and strings biased toward the grammar's alphabet) and anything other than
success or a clean :class:`ParseError` is a bug.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.symbolic.expr import Expr
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


@given(source=grammar_chars)
@example(source="(0<0)<0")  # a comparison of a comparison printed without its parentheses
@settings(max_examples=200, deadline=None)
def test_successful_parse_is_reparseable(source):
    try:
        expr = parse(source)
    except ParseError:
        return
    # printing a parsed tree must itself be valid input
    again = parse(str(expr))
    assert isinstance(again, Expr)
